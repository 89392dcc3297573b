// Command qosbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload (or all four, each in its own
// re-executed process), prints every end-to-end metric by name with its
// unit and sample count, verifies the simulator's outputs, and ends its
// standard output with one JSON line:
//
//	{"correct": true, "attempted": 175, "failed": 0, "metrics": {...}}
//
// Untraced runs report the end-to-end metrics. A traced run (-trace)
// additionally profiles the workload and reports the per-layer metrics,
// writing the CPU profile and the harness's spans (Chrome trace-event
// JSON) to the trace directory. The exit code is 0 only when every
// operation succeeded.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload paper-agents -seed 7 -seconds 12 -trace 0
//
// See bench/README.md for the workloads, metrics and attribution rules.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// defaultTraceDir receives traced runs' output for -trace 1; it lies
// under the build directory, which is not committed.
const defaultTraceDir = ".bench_build/qosbench-trace"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 7, "input seed (11 is the hold-out seed)")
	seconds := fs.Int("seconds", refSeconds, "run budget in seconds; scales the simulated work")
	traceArg := fs.String("trace", "0", "0 for untraced, 1 to trace into "+defaultTraceDir+", or a directory to trace into")
	record := fs.String("record", "", "write a baseline record (two sets of runs of every workload) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(stderr, "qosbench: unexpected arguments, or -seconds below 1")
		fs.Usage()
		return 2
	}
	traceDir := *traceArg
	switch traceDir {
	case "0", "":
		traceDir = ""
	case "1":
		traceDir = defaultTraceDir
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "qosbench: %v\n", err)
			return 1
		}
	}
	if *record != "" {
		return recordBaseline(*record, *seconds, stdout, stderr)
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *traceArg, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "qosbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	fmt.Fprintf(stdout, "qosbench workload=%s seed=%d seconds=%d %s GOMAXPROCS=%d nproc=%d\n",
		w.name, *seed, *seconds, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	r := runWorkload(w.sized(*seconds), *seed, traceDir)
	return report(r, traceDir != "", stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// summary is the JSON line every run ends with.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) summary(traced bool) summary {
	m := r.e2e
	if traced {
		m = r.layer
	}
	return summary{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// report prints the run's metrics and verdict and returns the exit code.
func report(r *result, traced bool, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "host.calib_s before=%.4f after=%.4f (drift sentinel, not gated)\n", r.calib[0], r.calib[1])
	fmt.Fprintf(stdout, "host.factor median=%.4f (step times are divided by it)\n", r.hostFactor)
	for _, name := range sortedKeys(r.e2e) {
		m := r.e2e[name]
		fmt.Fprintf(stdout, "%-24s %14.6g %-9s n=%d raw=%.6g\n", name, m.Value, m.Unit, r.samples[name], r.raw[name])
	}
	if traced {
		for _, name := range sortedKeys(r.layer) {
			m := r.layer[name]
			fmt.Fprintf(stdout, "%-30s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(stdout, "digest %016x (information only)\n", r.digest)
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "qosbench: %s: FAILED %s\n", r.workload, f)
	}
	s := r.summary(traced)
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(stderr, "qosbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !s.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runAll runs every workload in its own process, so no heap or GC state
// carries from one workload to the next, and ends with one JSON line
// whose metric names are prefixed with the workload name.
func runAll(seed uint64, seconds int, traceArg string, stdout, stderr io.Writer) int {
	all := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		s, out, err := runChild(w.name, stderr, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", traceArg)
		stdout.Write(out)
		if err != nil {
			fmt.Fprintf(stderr, "qosbench: %s: %v\n", w.name, err)
		}
		all.Correct = all.Correct && s.Correct && err == nil
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	line, _ := json.Marshal(all) // a map of plain numbers and strings always marshals
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}

// runChild re-executes this binary on one workload and waits for it. It
// returns the child's JSON summary and the lines printed before it.
func runChild(name string, stderr io.Writer, args ...string) (summary, []byte, error) {
	var s summary
	exe, err := os.Executable()
	if err != nil {
		return s, nil, err
	}
	cmd := exec.Command(exe, append([]string{"-workload", name}, args...)...)
	cmd.Stderr = stderr
	// A child outlives nothing: if this process dies, so does the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, runErr := cmd.Output()
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return s, out, runErr
	}
	body, last := splitLastLine(out)
	if err := json.Unmarshal(last, &s); err != nil {
		return s, out, fmt.Errorf("no result line: %v", err)
	}
	return s, body, runErr
}

func splitLastLine(out []byte) (body, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}
