package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// recordRuns is how many runs of each workload a -record set takes, each
// with another seed.
const recordRuns = 10

// baselineRecord is the file -record writes: two sets of untraced runs of
// every workload over the same seeds, their medians and quartile spreads,
// how far set B's medians moved from set A's, and one traced run per
// workload for the per-layer split.
type baselineRecord struct {
	Commit     string                                `json:"commit"`
	Go         string                                `json:"go"`
	Nproc      int                                   `json:"nproc"`
	GOMAXPROCS int                                   `json:"gomaxprocs"`
	Seconds    int                                   `json:"run_seconds"`
	Seeds      []uint64                              `json:"seeds"`
	Sets       map[string]map[string]*workloadRecord `json:"sets"`
	BvsA       map[string]map[string]float64         `json:"b_vs_a_median_change"`
	Traced     map[string]map[string]metric          `json:"traced_seed7"`
	Failures   []string                              `json:"failures,omitempty"`
}

type workloadRecord struct {
	Runs       []runRecord             `json:"runs"`
	Summary    map[string]metricSpread `json:"summary"`
	RawSummary map[string]metricSpread `json:"raw_summary"`
}

// runRecord is one run: its host-normalized end-to-end metrics, the same
// metrics as the wall clock read them, the median host factor that
// separates the two, and the drift sentinel around the run.
type runRecord struct {
	Seed        uint64             `json:"seed"`
	CalibBefore float64            `json:"host_calib_s_before"`
	CalibAfter  float64            `json:"host_calib_s_after"`
	HostFactor  float64            `json:"host_factor"`
	Metrics     map[string]float64 `json:"metrics"`
	Raw         map[string]float64 `json:"raw_metrics"`
}

// metricSpread is a metric's median and quartiles over a set's runs.
// IQRFrac is (Q3-Q1)/median, the spread the bounds are checked against.
type metricSpread struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	IQRFrac float64 `json:"iqr_frac"`
}

// parseInfo reads what a child printed for information only: the drift
// sentinel, the host factor and each end-to-end metric's raw value.
func parseInfo(out []byte, rr *runRecord) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if _, err := fmt.Sscanf(line, "host.calib_s before=%g after=%g", &rr.CalibBefore, &rr.CalibAfter); err == nil {
			continue
		}
		if _, err := fmt.Sscanf(line, "host.factor median=%g", &rr.HostFactor); err == nil {
			continue
		}
		f := strings.Fields(line)
		if len(f) == 5 && strings.HasPrefix(f[4], "raw=") {
			if v, err := strconv.ParseFloat(f[4][len("raw="):], 64); err == nil {
				rr.Raw[f[0]] = v
			}
		}
	}
}

// spreads summarises each metric of(run) returns, over the runs.
func spreads(runs []runRecord, of func(runRecord) map[string]float64) map[string]metricSpread {
	out := map[string]metricSpread{}
	for _, name := range sortedKeys(of(runs[0])) {
		var xs []float64
		for _, rr := range runs {
			xs = append(xs, of(rr)[name])
		}
		q1, q3 := quartiles(xs)
		med := median(xs)
		out[name] = metricSpread{Median: med, Q1: q1, Q3: q3, IQRFrac: ratio(q3-q1, med)}
	}
	return out
}

// recordSeeds returns n seeds from 1 upward, skipping the hold-out seed.
func recordSeeds(n int) []uint64 {
	var seeds []uint64
	for s := uint64(1); len(seeds) < n; s++ {
		if s != 11 {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// buildCommit is the commit the binary was built from, as the go command
// stamps it when building inside a git checkout, with "+dirty" for
// uncommitted changes; "unknown" elsewhere.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

func recordBaseline(path string, seconds int, stdout, stderr io.Writer) int {
	rec := baselineRecord{
		Commit: buildCommit(), Go: runtime.Version(), Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds: seconds, Seeds: recordSeeds(recordRuns),
		Sets: map[string]map[string]*workloadRecord{}, BvsA: map[string]map[string]float64{},
		Traced: map[string]map[string]metric{},
	}
	sec := strconv.Itoa(seconds)
	for _, set := range []string{"A", "B"} {
		rec.Sets[set] = map[string]*workloadRecord{}
		for _, seed := range rec.Seeds {
			for _, w := range workloads {
				s, out, err := runChild(w.name, stderr, "-seed", strconv.FormatUint(seed, 10), "-seconds", sec, "-trace", "0")
				if err != nil || !s.Correct {
					rec.Failures = append(rec.Failures, fmt.Sprintf("set %s %s seed %d: %v", set, w.name, seed, err))
				}
				rr := runRecord{Seed: seed, Metrics: map[string]float64{}, Raw: map[string]float64{}}
				parseInfo(out, &rr)
				for k, m := range s.Metrics {
					rr.Metrics[k] = m.Value
				}
				wr := rec.Sets[set][w.name]
				if wr == nil {
					wr = &workloadRecord{}
					rec.Sets[set][w.name] = wr
				}
				wr.Runs = append(wr.Runs, rr)
				fmt.Fprintf(stdout, "set %s seed %d %s: %v\n", set, seed, w.name, rr.Metrics)
			}
		}
		for _, wr := range rec.Sets[set] {
			wr.Summary = spreads(wr.Runs, func(rr runRecord) map[string]float64 { return rr.Metrics })
			wr.RawSummary = spreads(wr.Runs, func(rr runRecord) map[string]float64 { return rr.Raw })
		}
	}
	for name, a := range rec.Sets["A"] {
		rec.BvsA[name] = map[string]float64{}
		for metricName, sa := range a.Summary {
			sb := rec.Sets["B"][name].Summary[metricName]
			rec.BvsA[name][metricName] = ratio(sb.Median-sa.Median, sa.Median)
		}
	}
	for _, w := range workloads {
		s, _, err := runChild(w.name, stderr, "-seed", "7", "-seconds", sec, "-trace", "1")
		if err != nil || !s.Correct {
			rec.Failures = append(rec.Failures, fmt.Sprintf("traced %s: %v", w.name, err))
		}
		rec.Traced[w.name] = s.Metrics
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "qosbench: %v\n", err)
		return 1
	}
	if len(rec.Failures) > 0 {
		return 1
	}
	return 0
}
