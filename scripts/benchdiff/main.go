// Command benchdiff compares two performance data points and fails on
// regression. It is the CI perf gate: the bench job keeps the previous
// build's artifacts in a cache and runs
//
//	go run ./scripts/benchdiff old-bench.txt new-bench.txt
//
// once two data points exist (the first build passes vacuously because
// there is nothing to compare against).
//
// Two input formats are auto-detected:
//
//   - `go test -bench` text (e.g. bench.txt, bench-agentday.txt): ns/op —
//     and, when both artifacts carry -benchmem columns, allocs/op — are
//     compared per benchmark; either quantity regressing past -threshold
//     (default 20%) fails the gate. With -count > 1 the best (minimum)
//     value per name is used, which filters scheduler noise. With
//     -improvement F the gate additionally demands NEW be at least F times
//     faster than OLD — the speedup-proof mode `make perf-proof` runs
//     against the checked-in seed artifact.
//
//   - campaign JSON records (*.json, e.g. campaign-smoke.json): per-group
//     metric means are compared and drifts beyond the threshold are
//     reported. Simulation metrics legitimately move when the model
//     changes, so JSON drift is report-only unless -fail is given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	qoscluster "repro"
	"repro/internal/campaign"
)

var (
	threshold = flag.Float64("threshold", 0.20, "relative regression that fails the gate (0.20 = +20%)")
	failDrift = flag.Bool("fail", false, "fail on campaign-JSON metric drift too (default: report only)")
	improve   = flag.Float64("improvement", 0, "require NEW ns/op <= OLD/F for every common benchmark (0 = off); the speedup-proof mode against a checked-in seed artifact")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold F] [-fail] OLD NEW\n")
		fmt.Fprintf(os.Stderr, "OLD and NEW are two `go test -bench` outputs or two campaign JSON records.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	var regressions []string
	var err error
	if strings.HasSuffix(oldPath, ".json") {
		regressions, err = diffCampaign(oldPath, newPath, *threshold)
		if err == nil && !*failDrift && len(regressions) > 0 {
			fmt.Printf("benchdiff: %d metric drift(s) beyond %.0f%% (report only; -fail to gate)\n",
				len(regressions), *threshold*100)
			regressions = nil
		}
	} else {
		regressions, err = diffBench(oldPath, newPath, *threshold, *improve)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL — %d regression(s) beyond %.0f%%:\n", len(regressions), *threshold*100)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK")
}

// benchLine matches `go test -bench` result lines, with the optional
// -benchmem columns, e.g.
// "BenchmarkAgentDay-8   3   123456789 ns/op   42 B/op   7 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// benchPoint is one benchmark's best observed measurements. Allocs < 0
// means the artifact predates -benchmem and carries no allocation data.
type benchPoint struct {
	ns     float64
	allocs float64
}

// parseBench returns the best (minimum) ns/op and allocs/op per benchmark
// name; with -count > 1 the minimum filters scheduler noise.
func parseBench(path string) (map[string]benchPoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	best := map[string]benchPoint{}
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		allocs := -1.0
		if m[4] != "" {
			if a, err := strconv.ParseFloat(m[4], 64); err == nil {
				allocs = a
			}
		}
		cur, seen := best[m[1]]
		if !seen {
			best[m[1]] = benchPoint{ns: ns, allocs: allocs}
			continue
		}
		if ns < cur.ns {
			cur.ns = ns
		}
		if allocs >= 0 && (cur.allocs < 0 || allocs < cur.allocs) {
			cur.allocs = allocs
		}
		best[m[1]] = cur
	}
	if len(best) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return best, nil
}

// retired names the gated benchmarks deleted on purpose, each with its
// reason. The CI gate compares against the last passing build's artifact,
// which still holds them, so without this list the gate would stay red
// for good.
var retired = map[string]string{
	"BenchmarkAgentDayShards": "deleted with the sharded observe/apply agent dispatch it measured",
}

// diffBench compares ns/op and allocs/op per benchmark, printing the
// comparison table and returning the regressions beyond the threshold.
// Allocation data is gated only when both artifacts carry it. With
// improvement > 0 a benchmark additionally fails unless its new ns/op is
// at least that factor better than the old point. A benchmark in OLD but
// missing from NEW fails too — a renamed or no-longer-run gated benchmark
// must not slip past the gate — unless it is retired, which is listed
// with its reason; one only in NEW is listed as new, with no baseline to
// compare against.
func diffBench(oldPath, newPath string, threshold, improvement float64) ([]string, error) {
	oldB, err := parseBench(oldPath)
	if err != nil {
		return nil, err
	}
	newB, err := parseBench(newPath)
	if err != nil {
		return nil, err
	}
	var names, added []string
	for name := range newB {
		if _, ok := oldB[name]; ok {
			names = append(names, name)
		} else {
			added = append(added, name)
		}
	}
	var regressions, gone []string
	for name := range oldB {
		if _, ok := newB[name]; ok {
			continue
		}
		if _, ok := retired[name]; ok {
			gone = append(gone, name)
		} else {
			regressions = append(regressions, fmt.Sprintf("%s: in %s but missing from %s", name, oldPath, newPath))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no common benchmarks between %s and %s", oldPath, newPath)
	}
	sort.Strings(names)
	sort.Strings(added)
	sort.Strings(gone)
	sort.Strings(regressions)
	fmt.Printf("%-32s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, name := range names {
		o, n := oldB[name], newB[name]
		delta := (n.ns - o.ns) / o.ns
		allocCols := fmt.Sprintf("%12s %12s %8s", "-", "-", "-")
		if o.allocs >= 0 && n.allocs >= 0 {
			if o.allocs == 0 {
				// No relative delta off a zero baseline: any allocation at
				// all is the regression.
				allocCols = fmt.Sprintf("%12.0f %12.0f %8s", o.allocs, n.allocs, "-")
				if n.allocs > 0 {
					regressions = append(regressions,
						fmt.Sprintf("%s: 0 → %.0f allocs/op (from zero baseline)", name, n.allocs))
				}
			} else {
				ad := (n.allocs - o.allocs) / o.allocs
				allocCols = fmt.Sprintf("%12.0f %12.0f %+7.1f%%", o.allocs, n.allocs, ad*100)
				if ad > threshold {
					regressions = append(regressions,
						fmt.Sprintf("%s: %.0f → %.0f allocs/op (%+.1f%%)", name, o.allocs, n.allocs, ad*100))
				}
			}
		}
		fmt.Printf("%-32s %14.0f %14.0f %+7.1f%% %s\n", name, o.ns, n.ns, delta*100, allocCols)
		if delta > threshold {
			regressions = append(regressions, fmt.Sprintf("%s: %.0f → %.0f ns/op (%+.1f%%)", name, o.ns, n.ns, delta*100))
		}
		if improvement > 0 && n.ns > o.ns/improvement {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f → %.0f ns/op is only %.2fx, want >= %.2fx", name, o.ns, n.ns, o.ns/n.ns, improvement))
		}
	}
	for _, name := range added {
		fmt.Printf("%-32s %14s %14.0f   new, no baseline\n", name, "-", newB[name].ns)
	}
	for _, name := range gone {
		fmt.Printf("%-32s %14.0f %14s   retired: %s\n", name, oldB[name].ns, "-", retired[name])
	}
	return regressions, nil
}

// parseCampaign reads one campaign record (or an array of them, the
// -ablate form) and flattens per-group metric means keyed by the full
// group coordinates, so groups match across builds even if their order
// in the record changes.
func parseCampaign(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var records []campaign.Result
	if err := json.Unmarshal(data, &records); err != nil {
		var one campaign.Result
		if err := json.Unmarshal(data, &one); err != nil {
			return nil, fmt.Errorf("%s: not a campaign record: %v", path, err)
		}
		records = []campaign.Result{one}
	}
	means := map[string]float64{}
	for _, rec := range records {
		for _, g := range rec.Groups {
			prefix := rec.Name + "[" + qoscluster.GroupLabel(g.Cell) + "]"
			for metric, s := range g.Stats {
				means[prefix+" "+metric] = s.Mean
			}
		}
	}
	if len(means) == 0 {
		return nil, fmt.Errorf("%s: no group stats found", path)
	}
	return means, nil
}

// diffCampaign compares per-group metric means between two campaign
// records and returns drifts beyond the threshold.
func diffCampaign(oldPath, newPath string, threshold float64) ([]string, error) {
	oldM, err := parseCampaign(oldPath)
	if err != nil {
		return nil, err
	}
	newM, err := parseCampaign(newPath)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(newM))
	for k := range newM {
		if _, ok := oldM[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var drifts []string
	for _, k := range keys {
		o, n := oldM[k], newM[k]
		if o == 0 {
			// No relative delta off a zero baseline: flag material
			// appearances honestly instead of fabricating a percentage.
			if math.Abs(n) > 1e-6 {
				drifts = append(drifts, fmt.Sprintf("%s: %.3f → %.3f (from zero baseline)", k, o, n))
			}
			continue
		}
		delta := (n - o) / o
		if delta > threshold || delta < -threshold {
			drifts = append(drifts, fmt.Sprintf("%s: %.3f → %.3f (%+.1f%%)", k, o, n, delta*100))
		}
	}
	// Inside GitHub Actions, report-only drift is easy to lose in the log;
	// emit workflow-command warning annotations so each drifted metric
	// surfaces on the run summary and the PR checks page instead.
	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	for _, d := range drifts {
		if annotate {
			fmt.Printf("::warning title=campaign metric drift::%s\n", d)
		} else {
			fmt.Println("  drift " + d)
		}
	}
	fmt.Printf("campaign diff: %d comparable metrics, %d drifted beyond %.0f%%\n", len(keys), len(drifts), threshold*100)
	return drifts, nil
}
