package main

import (
	"bufio"
	"bytes"
	"debug/elf"
	"debug/gosym"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestAttributionRules(t *testing.T) {
	data, err := os.ReadFile("../testdata/attribution.folded")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := readFolded(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ self, sub string }{
		{"fsim", "agent"},           // innermost repro frame is self
		{"svc", "probe"},            // pool worker: its prepare subsystem
		{"agents", "agent"},         // pool worker observing agents
		{"agent", "agent"},          // shard 0 of a prepare phase
		{"gc", "gc"},                // GC worker
		{"svc", "setup"},            // campaign Reset is set-up
		{"simclock", dispatchLayer}, // pure dispatch
		{"simclock", "setup"},       // deploy schedules, dispatches nothing
		{"other", "other"},          // idle scheduler
		{"cluster", "baseline"},     // BMC monitor tick
		{"other", "qoscluster"},     // unlisted package folds into other
	}
	if len(samples) != len(want) {
		t.Fatalf("fixture has %d samples, want %d", len(samples), len(want))
	}
	for i, s := range samples {
		if got := selfOf(s.stack); got != want[i].self {
			t.Errorf("sample %d: self = %s, want %s", i+1, got, want[i].self)
		}
		if got := subOf(s.stack); got != want[i].sub {
			t.Errorf("sample %d: sub = %s, want %s", i+1, got, want[i].sub)
		}
	}

	a := attribute(samples)
	if a.total != 50 {
		t.Fatalf("total = %d samples, want 50", a.total)
	}
	for name, family := range map[string]map[string]float64{"self": a.self, "sub": a.sub} {
		sum := 0.0
		for _, v := range family {
			sum += v
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s fractions sum to %v, want 1 ± 0.01", name, sum)
		}
	}
	// Inclusive shares: observe = samples 3, 4; apply = 1; pool and
	// prepare = 2, 3, 4.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"observe", a.observe, 6.0 / 50},
		{"apply", a.apply, 10.0 / 50},
		{"pool", a.pool, 12.0 / 50},
		{"prepare", a.prepare, 12.0 / 50},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for layer := range a.self {
		if !slices.Contains(selfLayers, layer) {
			t.Errorf("self layer %q is not reported", layer)
		}
	}
	for layer := range a.sub {
		if layer != dispatchLayer && !slices.Contains(subLayers, layer) {
			t.Errorf("sub layer %q is not reported", layer)
		}
	}
}

// TestRuleFramesExist looks up every frame the attribution rules key on
// in this test binary's function table, so a renamed or moved simulator
// function fails here instead of silently zeroing a layer metric.
func TestRuleFramesExist(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pclntab, text := f.Section(".gopclntab"), f.Section(".text")
	if pclntab == nil || text == nil {
		t.Fatal("test binary has no .gopclntab or .text section")
	}
	data, err := pclntab.Data()
	if err != nil {
		t.Fatal(err)
	}
	table, err := gosym.NewTable(nil, gosym.NewLineTable(data, text.Addr))
	if err != nil {
		t.Fatal(err)
	}
	frames := []string{fnObserve, fnApply, fnRun, fnPoolRun, fnPoolWorker, fnPrepare, fnNewSite, fnSiteReset}
	for fn := range dispatchRoots {
		frames = append(frames, fn)
	}
	for _, fn := range frames {
		if table.LookupFunc(fn) == nil {
			t.Errorf("attribution keys on %s, which the simulator no longer has", fn)
		}
	}
}

// TestReadProfile decodes a profile runtime/pprof wrote and checks the
// stacks come out root first, with real function names.
func TestReadProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "goroutine.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	const self = "repro/bench/qosbench.TestReadProfile"
	for _, s := range samples {
		i, j := slices.Index(s.stack, "testing.tRunner"), slices.Index(s.stack, self)
		if i >= 0 && j > i {
			return
		}
	}
	t.Fatalf("no decoded stack runs testing.tRunner -> %s; got %v", self, samples)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 8.25];
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 3.75].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// readFolded parses folded stacks, one sample per line as
// "root;frame;...;leaf count" — the fixture format of the attribution
// tests. Blank lines and lines starting with '#' are skipped.
func readFolded(data []byte) ([]sample, error) {
	var out []sample
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("folded line %q: no count", line)
		}
		n, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("folded line %q: %w", line, err)
		}
		out = append(out, sample{stack: strings.Split(line[:i], ";"), n: n})
	}
	return out, sc.Err()
}
