package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// smoke shrinks a workload to a few seconds of simulation in total:
// 2 sim-hours per site, a 1000-host megasite, and 2-day campaign trials
// with one seed per cell.
func smoke(w workload) workload {
	w.setupReps = 2
	if w.campaign {
		w.days = 2
		w.seedsPerCell = 1
		return w
	}
	w.hours, w.verifyHours = 2, 2
	if w.site == "megasite-100000" {
		w.site = "megasite-1000"
	}
	return w
}

// benchmarkSpec is the part of BENCHMARK.json the harness must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }               `json:"workloads"`
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload traced at smoke scale. Every end-to-end
// metric must print with its unit, every per-layer metric BENCHMARK.json
// lists must be reported with its unit, the profile and span files must
// exist, and no operation may fail.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, workloadNames())
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			r := runWorkload(smoke(w), 7, dir)
			var out, errs bytes.Buffer
			if code := report(r, true, &out, &errs); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errs.String())
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("failed %d of %d operations: %v", r.failed, r.attempted, r.failures)
			}
			lines := strings.Split(out.String(), "\n")
			for _, m := range spec.EndToEnd {
				got, ok := r.e2e[m.Name]
				if !ok || got.Unit != m.Unit || !printed(lines, m.Name, m.Unit) {
					t.Errorf("end-to-end %s: got %+v, printed=%v; want unit %s", m.Name, got, printed(lines, m.Name, m.Unit), m.Unit)
				}
			}
			if len(r.e2e) != len(spec.EndToEnd) {
				t.Errorf("harness reports %d end-to-end metrics, BENCHMARK.json lists %d", len(r.e2e), len(spec.EndToEnd))
			}
			for _, m := range spec.PerLayer {
				if got, ok := r.layer[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if len(r.layer) != len(spec.PerLayer) {
				t.Errorf("harness reports %d per-layer metrics, BENCHMARK.json lists %d", len(r.layer), len(spec.PerLayer))
			}
			for _, f := range []string{w.name + ".cpu.pprof", w.name + ".trace.json"} {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("trace output %s: %v", f, err)
				}
			}
			var s summary
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &s); err != nil || !s.Correct || s.Failed != 0 {
				t.Errorf("last line %q: %+v, %v", lines[len(lines)-2], s, err)
			}
		})
	}
}

func printed(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 5 && f[0] == name && f[2] == unit && strings.HasPrefix(f[3], "n=") && strings.HasPrefix(f[4], "raw=") {
			return true
		}
	}
	return false
}

// TestVerifierCountsMismatch feeds the verifier a digest the reference
// run did not reproduce: the failure must be counted, the JSON line must
// say so, and the exit code must be non-zero.
func TestVerifierCountsMismatch(t *testing.T) {
	r := newResult("negative")
	r.planned = 3
	r.op("chunk 1", nil)
	verifyDigest(r, "reference run", 0xfeed, 0xbeef, nil)
	r.finish()
	if r.attempted != 3 || r.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2 (the mismatch and the op that never ran)", r.attempted, r.failed)
	}
	var out, errs bytes.Buffer
	if code := report(r, false, &out, &errs); code == 0 {
		t.Fatal("exit code 0 after a failed verification")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Correct || s.Failed != 2 || s.Attempted != 3 {
		t.Fatalf("summary %+v, want correct=false failed=2 attempted=3", s)
	}
	if !strings.Contains(errs.String(), "digest 000000000000beef, want 000000000000feed") {
		t.Fatalf("stderr does not name the mismatch:\n%s", errs.String())
	}
}
