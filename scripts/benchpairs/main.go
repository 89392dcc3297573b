// Command benchpairs runs a parent and a change build of qosbench in
// alternated pairs on one workload and summarizes them: the same-machine
// A/B comparison a speed claim rests on. From the repository root:
//
//	go run ./scripts/benchpairs -parent parent-qosbench -change change-qosbench \
//		-workload paper-agents -seeds 10
//
// It runs N pairs at seeds 1, 2, … skipping the benchmark's hold-out seed
// 11. Each pair runs both binaries at its seed with `-trace 0` and
// qosbench's default run size, the parent first on odd seeds and the
// change first on even ones, so a slow spell of the host does not always
// land on the same side. Seed 11 then runs one more pair, left out of the
// statistics. Each pair prints a line as it finishes.
//
// For every end-to-end metric that BENCHMARK.json declares, it prints
// each side's median with its quartiles (Python's statistics.quantiles
// exclusive method, as the benchmark's acceptance check uses), the
// number of pairs the change wins in the metric's better direction, the
// median and range of the per-pair ratios change/parent, and how many of
// the parent's interquartile ranges separate the two medians.
//
// It exits 1 when a run is not correct, has a failed operation or could
// not be run, or when a pair's report digests differ, and 2 on bad
// arguments.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, execRun))
}

// runFunc runs one qosbench binary with the given arguments and returns
// its standard output; a run that exits non-zero still returns its
// output, so the summary line can say why.
type runFunc func(bin string, args []string) ([]byte, error)

func execRun(bin string, args []string) ([]byte, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		err = nil // the summary line reports the failure
	}
	return out, err
}

func run(args []string, stdout, stderr io.Writer, runBin runFunc) int {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parent := fs.String("parent", "", "the parent's qosbench binary")
	change := fs.String("change", "", "the change's qosbench binary")
	workload := fs.String("workload", "paper-agents", "qosbench workload")
	seeds := fs.Int("seeds", 10, "number of pairs, at seeds from 1 up, skipping the hold-out seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *parent == "" || *change == "" || *seeds < 1 {
		fmt.Fprintln(stderr, "benchpairs: need -parent and -change binaries and -seeds of at least 1")
		fs.Usage()
		return 2
	}
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchpairs: %v (run it from the repository root)\n", err)
		return 2
	}
	metrics, err := parseSpec(spec)
	if err != nil {
		fmt.Fprintf(stderr, "benchpairs: BENCHMARK.json: %v\n", err)
		return 2
	}

	bins := [2]string{*parent, *change}
	var pairs []pair
	bad := 0
	runPair := func(seed uint64) (pair, bool) {
		var p pair
		order := [2]int{0, 1}
		if seed%2 == 0 {
			order = [2]int{1, 0}
		}
		ok := true
		for _, side := range order {
			out, err := runBin(bins[side], []string{"-workload", *workload,
				"-seed", strconv.FormatUint(seed, 10), "-trace", "0"})
			r, perr := parseRun(out)
			if err == nil {
				err = perr
			}
			if err == nil && (!r.Correct || r.Failed > 0) {
				err = fmt.Errorf("correct=%v, %d of %d operations failed", r.Correct, r.Failed, r.Attempted)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchpairs: seed %d %s: %v\n", seed, sideName[side], err)
				ok = false
			}
			p[side] = r
		}
		if ok && p[0].Digest != p[1].Digest {
			fmt.Fprintf(stderr, "benchpairs: seed %d: digests differ: parent %s, change %s\n",
				seed, p[0].Digest, p[1].Digest)
			ok = false
		}
		fmt.Fprintf(stdout, "seed %d:", seed)
		for _, m := range metrics {
			fmt.Fprintf(stdout, " %s %.4g → %.4g;", m.Name, p[0].Metrics[m.Name].Value, p[1].Metrics[m.Name].Value)
		}
		fmt.Fprintf(stdout, " digest %s\n", p[1].Digest)
		return p, ok
	}
	for _, s := range pairSeeds(*seeds) {
		p, ok := runPair(s)
		if !ok {
			bad++
		}
		pairs = append(pairs, p)
	}
	if _, ok := runPair(holdout); !ok {
		bad++
	}
	summarize(stdout, *workload, metrics, pairs)
	fmt.Fprintf(stdout, "hold-out seed %d: its pair line above; not in the statistics\n", holdout)
	if bad > 0 {
		fmt.Fprintf(stderr, "benchpairs: FAIL — %d pair(s) with a failed, incorrect or diverging run\n", bad)
		return 1
	}
	return 0
}

var sideName = [2]string{"parent", "change"}

// holdout is the benchmark's hold-out seed, which qosbench's recorded
// baselines also leave out.
const holdout = 11

// pairSeeds returns n seeds from 1 upward, skipping the hold-out seed.
func pairSeeds(n int) []uint64 {
	var seeds []uint64
	for s := uint64(1); len(seeds) < n; s++ {
		if s != holdout {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// specMetric is one end-to-end metric BENCHMARK.json declares.
type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func parseSpec(data []byte) ([]specMetric, error) {
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("metric %s: better is %q, want higher or lower", m.Name, m.Better)
		}
	}
	if len(spec.EndToEnd) == 0 {
		return nil, errors.New("no end_to_end metrics")
	}
	return spec.EndToEnd, nil
}

// runResult is what one qosbench run printed: its closing JSON summary
// and its report digest.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	Digest string `json:"-"`
}

// parseRun reads a qosbench run's standard output: the `digest` line and
// the JSON summary on the last line.
func parseRun(out []byte) (runResult, error) {
	var r runResult
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "digest" {
			r.Digest = f[1]
		}
		last = line
	}
	if !strings.HasPrefix(last, "{") {
		return r, errors.New("no JSON summary line")
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("summary line: %v", err)
	}
	if r.Digest == "" {
		return r, errors.New("no digest line")
	}
	return r, nil
}

// pair is one seed's parent (0) and change (1) runs.
type pair [2]runResult

// summarize prints one line per metric over the pairs.
func summarize(w io.Writer, workload string, metrics []specMetric, pairs []pair) {
	fmt.Fprintf(w, "%s: %d alternated pairs (parent first on odd seeds)\n", workload, len(pairs))
	fmt.Fprintf(w, "%-14s %-9s %-36s %-36s %-5s %-7s %s\n",
		"metric", "unit", "parent median (q1–q3)", "change median (q1–q3)", "wins", "ratio", "Δmedian/IQR")
	for _, m := range metrics {
		var par, chg, ratios []float64
		wins := 0
		for _, p := range pairs {
			a, aok := p[0].Metrics[m.Name]
			b, bok := p[1].Metrics[m.Name]
			if !aok || !bok {
				continue
			}
			par, chg = append(par, a.Value), append(chg, b.Value)
			if a.Value != 0 {
				ratios = append(ratios, b.Value/a.Value)
			}
			if m.Better == "higher" && b.Value > a.Value || m.Better == "lower" && b.Value < a.Value {
				wins++
			}
		}
		if len(par) == 0 {
			fmt.Fprintf(w, "%-14s %-9s (not reported)\n", m.Name, m.Unit)
			continue
		}
		pq1, pmed, pq3 := quartiles(par)
		cq1, cmed, cq3 := quartiles(chg)
		sep := math.Inf(1)
		if iqr := pq3 - pq1; iqr > 0 {
			sep = (cmed - pmed) / iqr
		}
		_, rmed, _ := quartiles(ratios)
		lo, hi := math.NaN(), math.NaN()
		if len(ratios) > 0 {
			lo, hi = slices.Min(ratios), slices.Max(ratios)
		}
		fmt.Fprintf(w, "%-14s %-9s %-36s %-36s %2d/%-2d %-7.3f %+.2f (%s is better; ratios %.3g–%.3g)\n",
			m.Name, m.Unit, spread(pmed, pq1, pq3), spread(cmed, cq1, cq3),
			wins, len(par), rmed, sep, m.Better, lo, hi)
	}
}

func spread(med, q1, q3 float64) string {
	return fmt.Sprintf("%.4g (%.4g–%.4g)", med, q1, q3)
}

// quartiles returns the three quartiles — Q2 is the median — as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
