package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// canned is a qosbench run's standard output, cut to the lines the driver
// reads and a few it must skip.
func canned(seed string, days, setup float64, digest string, correct bool, failed int) string {
	return fmt.Sprintf(`qosbench workload=paper-agents seed=%s seconds=12 go1.24.0 GOMAXPROCS=2 nproc=2
host.calib_s before=0.5011 after=0.6804 (drift sentinel, not gated)
host.factor median=1.1163 (step times are divided by it)
setup_s                       %g s         n=21 raw=0.0042
sim_days_per_s                 %g simday/s  n=168 raw=0.86
digest %s (information only)
{"correct":%v,"attempted":170,"failed":%d,"metrics":{"setup_s":{"value":%g,"unit":"s"},"sim_days_per_s":{"value":%g,"unit":"simday/s"}}}
`, seed, setup, days, digest, correct, failed, setup, days)
}

const spec = `{"end_to_end": [
  {"name": "sim_days_per_s", "unit": "simday/s", "better": "higher", "bound": 0.25},
  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}`

// fakeRuns answers each binary with canned output per seed, and records
// the order the runs came in.
type fakeRuns struct {
	out   map[string]string // "bin seed" -> output
	order []string
}

func (f *fakeRuns) run(bin string, args []string) ([]byte, error) {
	seed := args[slices.Index(args, "-seed")+1]
	f.order = append(f.order, bin+" "+seed)
	out, ok := f.out[bin+" "+seed]
	if !ok {
		return nil, fmt.Errorf("no canned output for %s at seed %s", bin, seed)
	}
	return []byte(out), nil
}

// inRepo runs the test in a directory holding only BENCHMARK.json.
func inRepo(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}

func TestPairsAlternateAndSummarize(t *testing.T) {
	inRepo(t)
	f := &fakeRuns{out: map[string]string{}}
	for s := 1; s <= 4; s++ {
		seed := fmt.Sprint(s)
		f.out["P "+seed] = canned(seed, 1.0+0.01*float64(s), 0.003, "aa", true, 0)
		f.out["C "+seed] = canned(seed, 1.3+0.01*float64(s), 0.0031-0.0001*float64(s%2*2), "aa", true, 0)
	}
	f.out["P 11"] = canned("11", 0.97, 0.003, "bb", true, 0)
	f.out["C 11"] = canned("11", 1.28, 0.003, "bb", true, 0)
	var out, errs bytes.Buffer
	if code := run([]string{"-parent", "P", "-change", "C", "-seeds", "4"}, &out, &errs, f.run); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs.String())
	}
	wantOrder := []string{"P 1", "C 1", "C 2", "P 2", "P 3", "C 3", "C 4", "P 4", "P 11", "C 11"}
	if !slices.Equal(f.order, wantOrder) {
		t.Errorf("run order %v, want %v", f.order, wantOrder)
	}
	// sim_days_per_s: parent 1.01..1.04 (median 1.025, quartiles 1.0125
	// and 1.0375), change 1.31..1.34, the change wins all four, the ratios'
	// median is (1.32/1.02 + 1.33/1.03)/2. setup_s: the change is lower
	// (better) on the odd seeds only. The medians sit 12 parent IQRs apart.
	for _, want := range []string{
		"paper-agents: 4 alternated pairs",
		"sim_days_per_s simday/s  1.025 (1.013–1.038)",
		"1.325 (1.312–1.338)",
		" 4/4  1.293   +12.00",
		"setup_s        s         0.003 (0.003–0.003)",
		" 2/4 ",
		"seed 2: sim_days_per_s 1.02 → 1.32; setup_s 0.003 → 0.0031; digest aa\n",
		"ratios 1.29–1.3)",
		"seed 11: sim_days_per_s 0.97 → 1.28; setup_s 0.003 → 0.003; digest bb\n",
		"hold-out seed 11: its pair line above; not in the statistics",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}

func TestPairsFailOnBadRuns(t *testing.T) {
	inRepo(t)
	for _, c := range []struct {
		name, change, why string
	}{
		{"incorrect", canned("1", 1.3, 0.003, "aa", false, 0), "correct=false"},
		{"failed op", canned("1", 1.3, 0.003, "aa", true, 2), "2 of 170 operations failed"},
		{"digest", canned("1", 1.3, 0.003, "ab", true, 0), "digests differ: parent aa, change ab"},
		{"no summary", "qosbench: build failed\n", "no JSON summary line"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := &fakeRuns{out: map[string]string{
				"P 1": canned("1", 1.0, 0.003, "aa", true, 0), "C 1": c.change,
				"P 11": canned("11", 0.97, 0.003, "bb", true, 0), "C 11": canned("11", 1.28, 0.003, "bb", true, 0),
			}}
			var out, errs bytes.Buffer
			if code := run([]string{"-parent", "P", "-change", "C", "-seeds", "1"}, &out, &errs, f.run); code != 1 {
				t.Fatalf("exit %d, want 1", code)
			}
			if !strings.Contains(errs.String(), c.why) || !strings.Contains(errs.String(), "FAIL — 1 pair(s)") {
				t.Errorf("stderr %q lacks %q or the one failed pair", errs.String(), c.why)
			}
		})
	}
}

func TestPairSeedsSkipHoldout(t *testing.T) {
	if got, want := pairSeeds(12), []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13}; !slices.Equal(got, want) {
		t.Errorf("pairSeeds(12) = %v, want %v", got, want)
	}
	if got, want := pairSeeds(10), []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Errorf("pairSeeds(10) = %v, want %v", got, want)
	}
}

func TestPairsArguments(t *testing.T) {
	inRepo(t)
	f := &fakeRuns{}
	for _, args := range [][]string{{"-change", "C"}, {"-parent", "P"}, {"-parent", "P", "-change", "C", "-seeds", "0"}, {"-parent", "P", "-change", "C", "extra"}} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs, f.run); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if len(f.order) != 0 {
		t.Errorf("bad arguments ran %v", f.order)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is
	// [2.75, 5.5, 8.25]; for [1, 2, 3, 4] it is [1.25, 2.5, 3.75].
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		if q1, m, q3 := quartiles(c.xs); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
