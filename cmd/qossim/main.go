// Command qossim runs the reproduction's named scenarios and prints the
// tables the paper reports.
//
// Usage:
//
//	qossim [-seed N] [-days D] [-site LIST] [-trials N] [-workers W]
//	       [-trace FILE] [-tracelevel N] <scenario>
//	qossim campaign [-scenario NAME] [-trials N] [-workers W] [-seed N]
//	                [-days D] [-site LIST] [-cron LIST] [-ablate LIST]
//	                [-tierfaults CELLS] [-workload LIST] [-tierload CELLS]
//	                [-trace FILE] [-tracelevel N] [-agentslots N]
//	                [-cpuprofile FILE] [-memprofile FILE]
//	                [-json] [-out FILE] [<name>]
//	qossim replay -trace FILE [-workers W] [-json] [-out FILE]
//	              [-counterfactual [TRIAL:]EVENT] [-alt LIST]
//
// -site takes a comma-separated list of site topologies: registered names
// (paper, small, webfarm, computefarm, or anything registered with
// qoscluster.RegisterTopology) and/or paths to topology JSON files, which
// are loaded and registered under their declared names. Campaigns sweep
// the whole list as a first-class matrix axis — one aggregation group per
// site — while the narrative scenarios run each site in turn.
//
// Scenarios:
//
//	before   one year of manual operations (Figure 2, left bars)
//	after    one year under intelliagents (Figure 2, right bars)
//	fig2     both years, side by side
//	fig3     agent vs BMC CPU overhead at peak (Figure 3)
//	fig4     agent vs BMC memory overhead at peak (Figure 4)
//	latency  detection-latency sweep (§4: 5 min vs 1 h / 10 h / 25 h)
//	mttr     manual repair-time sweep (§4: restarts up to 2 h, 4 h avg)
//	ablate   all four option-axis ablations back to back
//
// latency, mttr and the ablations always run as multi-seed campaigns
// (-trials seeds per cell) and report mean ± 95%-CI aggregates; there is
// no single-seed path for them.
//
// The campaign subcommand replays a scenario matrix across many seeds in
// parallel (one goroutine per trial, pool bounded by NumCPU) and reports
// mean ± 95%-CI aggregates instead of a single stochastic trajectory.
// Campaign names: before, after, fig2 (default), fig3, fig4, overhead,
// latency, mttr, ablate-cron, ablate-rescue, ablate-net, ablate-resident.
// -cron overrides the ablate-cron period axis (e.g. -cron 1m,5m,15m,60m);
// -ablate cron,rescue,net,resident (or "all") runs several ablation
// campaigns back to back, emitting a JSON array under -json; -tierfaults
// sweeps per-tier fault intensity as a matrix axis on the site scenarios
// (semicolon-separated cells, each a tier=mult[,tier=mult] spec — e.g.
// -tierfaults ';web=4' pairs the unscaled default against web at 4x; a
// tier no selected site declares is rejected before any trial runs).
// -workload sweeps statistical workload specs as a matrix axis on the
// site scenarios: a comma list of registered spec names (paper,
// flashcrowd, failover, or anything registered with
// workload.RegisterSpec) and/or workload-spec JSON files, loaded and
// registered under their declared names; an empty cell (e.g.
// -workload ',flashcrowd') keeps the site's own generator, which stays
// byte-identical to a run without the flag. -tierload is the workload
// twin of -tierfaults: per-tier workload-intensity cells with the same
// semicolon/comma grammar, scaling each tier's analyst-share, batch and
// feed weights.
// -shards N advances each trial's per-tier batch work on N goroutines
// with a deterministic tick-boundary merge: pure wall-clock parallelism
// *inside* a trial (vs -workers *across* trials), byte-identical output
// at any count.
// -agentslots N quantizes agent cron wake-ups onto N slots per period; a
// slot's agents wake together and run one after another. Unlike -shards
// this changes the simulated trajectory (wake-up instants move to the
// slot grid), so campaign JSON records the value; at any fixed
// -agentslots the output stays byte-identical across every -shards
// count.
//
// -cpuprofile/-memprofile write pprof profiles covering the campaign's
// trials; every trial runs under pprof labels naming its cell (campaign,
// scenario, site, mode, seed), so `go tool pprof -tagfocus` isolates one
// cell's samples when investigating shard speedups.
//
// -trace FILE records every trial's decision trace — fault injections,
// detections, diagnosis rule firings, repairs, operator pages — to a
// JSONL file (-tracelevel 2 adds diagnosis evidence). Tracing is an
// execution knob like -shards: the campaign output is byte-identical
// with or without it. The replay subcommand re-runs every trial of a
// recorded trace from its seed, verifies each reproduces its recorded
// metrics, and with -counterfactual re-simulates one recorded trial with
// a diagnose decision overridden by alternative repair actions (-alt,
// default two picked automatically) and prints the outcome diff table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	qoscluster "repro"
	"repro/experiments"
	"repro/internal/campaign"
	"repro/internal/simclock"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "campaign" {
		runCampaign(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		runReplay(os.Args[2:])
		return
	}
	shared := registerShared(flag.CommandLine, 8)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qossim [flags] before|after|fig2|fig3|fig4|latency|mttr|ablate\n")
		fmt.Fprintf(os.Stderr, "       qossim campaign -help\n")
		fmt.Fprintf(os.Stderr, "       qossim replay -help\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := shared.config("qossim")
	if cfg.TracePath != "" && !traceableScenario(flag.Arg(0)) {
		fmt.Fprintf(os.Stderr, "qossim: -trace records campaign-backed scenarios (latency, mttr, ablate-*); %q is not one — use the campaign subcommand for the year scenarios\n", flag.Arg(0))
		os.Exit(2)
	}
	out, err := experiments.Run(flag.Arg(0), cfg)
	// Print whatever rendered before erroring: a campaign with failed
	// trials returns its tables (failed-trials detail included) alongside
	// the error.
	fmt.Print(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossim:", err)
		os.Exit(1)
	}
}

// runCampaign is the multi-seed parallel mode: it fans trials over a
// worker pool and prints aggregate tables (or the canonical JSON record).
func runCampaign(args []string) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	shared := registerShared(fs, 16)
	scenario := fs.String("scenario", "", "campaign scenario name (same as the positional argument)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign's trials to this file (trials carry per-cell pprof labels)")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the campaign's trials to this file")
	cron := fs.String("cron", "", "comma-separated cron periods for the ablate-cron axis (e.g. 1m,5m,15m,60m)")
	tierFaults := fs.String("tierfaults", "", "per-tier fault-intensity axis for site scenarios: semicolon-separated cells, each a tier=mult[,tier=mult] spec or empty for the default (e.g. ';web=2;web=0.5')")
	workloadAxis := fs.String("workload", "", "workload-spec axis for site scenarios: comma-separated cells, each a registered spec name or a spec JSON file, empty for the site's own generator (e.g. ',flashcrowd')")
	tierLoad := fs.String("tierload", "", "per-tier workload-intensity axis for site scenarios: semicolon-separated cells, each a tier=mult[,tier=mult] spec or empty for the default (e.g. ';db=2,fe=0.5')")
	ablate := fs.String("ablate", "", "run ablation campaigns back to back: comma list of cron,rescue,net,resident, or all")
	jsonOut := fs.Bool("json", false, "print the machine-readable campaign JSON instead of tables")
	outFile := fs.String("out", "", "also write the campaign JSON to this file")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qossim campaign [flags] [%s]\n", strings.Join(experiments.CampaignNames, "|"))
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	names, err := campaignNames(*scenario, *ablate, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossim campaign:", err)
		fs.Usage()
		os.Exit(2)
	}
	cfg := shared.config("qossim campaign")
	if cfg.TracePath != "" && len(names) > 1 {
		fmt.Fprintf(os.Stderr, "qossim campaign: -trace records one campaign per file; %v would overwrite each other\n", names)
		os.Exit(2)
	}
	if *tierFaults != "" {
		// Semicolons separate axis cells so one cell can itself be a
		// comma list; a leading/lone ';' contributes the unscaled default
		// cell. Specs are validated per scenario by CampaignMatrix.
		cfg.TierFaultScales = strings.Split(*tierFaults, ";")
		for i := range cfg.TierFaultScales {
			cfg.TierFaultScales[i] = strings.TrimSpace(cfg.TierFaultScales[i])
		}
	}
	if *tierLoad != "" {
		cfg.TierLoadScales = strings.Split(*tierLoad, ";")
		for i := range cfg.TierLoadScales {
			cfg.TierLoadScales[i] = strings.TrimSpace(cfg.TierLoadScales[i])
		}
	}
	if *workloadAxis != "" {
		// Commas separate workload cells (a cell is a single name or file
		// path); an empty cell keeps the site's own generator, so
		// ',flashcrowd' pairs the default against the flash-crowd spec.
		cfg.Workloads = strings.Split(*workloadAxis, ",")
		for i := range cfg.Workloads {
			cfg.Workloads[i] = strings.TrimSpace(cfg.Workloads[i])
		}
	}
	if *cron != "" {
		periods, err := parsePeriods(*cron)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qossim campaign: -cron:", err)
			fs.Usage()
			os.Exit(2)
		}
		cfg.CronPeriods = periods
		if !slices.Contains(names, "ablate-cron") {
			fmt.Fprintf(os.Stderr, "qossim campaign: -cron only applies to the ablate-cron scenario (running %v)\n", names)
			fs.Usage()
			os.Exit(2)
		}
	}
	// Validate every name before running anything: a bad entry late in an
	// -ablate list must not discard minutes of completed sweeps.
	for _, name := range names {
		if _, err := experiments.CampaignMatrix(name, cfg, cfg.Trials); err != nil {
			fmt.Fprintln(os.Stderr, "qossim campaign:", err)
			os.Exit(1)
		}
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossim campaign:", err)
		os.Exit(1)
	}

	var results []*campaign.Result
	failed := false
	for _, name := range names {
		res, err := experiments.Campaign(name, cfg)
		if err != nil {
			stopProfiles()
			fmt.Fprintln(os.Stderr, "qossim campaign:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "campaign %s: %d trials on %d workers in %s (est. serial cost %s, est. speedup %.1fx)\n",
			res.Name, len(res.Trials), res.Workers, res.Wall.Round(10*time.Millisecond),
			res.SerialTime().Round(10*time.Millisecond), res.Speedup())
		failed = failed || len(res.Errs()) > 0
		results = append(results, res)
	}
	stopProfiles()

	js, err := marshalResults(results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossim campaign: marshal:", err)
		os.Exit(1)
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, append(js, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "qossim campaign:", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		os.Stdout.Write(append(js, '\n'))
	} else {
		for i, res := range results {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(qoscluster.FormatCampaign(res))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// sharedFlags are the flags qossim and qossim campaign both take.
type sharedFlags struct {
	seed                                                  *uint64
	days, trials, workers, shards, agentSlots, traceLevel *int
	site, tracePath                                       *string
}

// registerShared declares the shared flags on fs, with trials as the
// -trials default.
func registerShared(fs *flag.FlagSet, trials int) *sharedFlags {
	return &sharedFlags{
		seed:       fs.Uint64("seed", 7, "base seed; trial i of each campaign cell uses seed+i"),
		days:       fs.Int("days", 0, "simulated days per trial (0 = scenario default: 365 for year scenarios, 90 for ablations; ablations cap at 120)"),
		site:       fs.String("site", "small", "comma-separated site topologies: registered names (paper, small, webfarm, computefarm) and/or topology JSON files"),
		trials:     fs.Int("trials", trials, "seeds per campaign matrix cell"),
		workers:    fs.Int("workers", 0, "campaign worker pool size (0 = NumCPU)"),
		shards:     fs.Int("shards", 0, "intra-trial shard goroutines per trial (0/1 = single-goroutine engine; results are byte-identical at any count)"),
		agentSlots: fs.Int("agentslots", 0, "quantize agent crons onto N slots per period, a slot's agents running one after another (0 = per-agent phases; changes the trajectory, unlike -shards)"),
		tracePath:  fs.String("trace", "", "record every trial's decision trace to this JSONL file (replayable with qossim replay)"),
		traceLevel: fs.Int("tracelevel", 0, "trace detail: 1 decision events, 2 adds diagnosis evidence (0 = 1 when -trace is set)"),
	}
}

// config returns the experiment config the parsed shared flags describe,
// exiting with a usage error (prefixed by prog) when -days, -trials or
// -workers is negative, when -trials is 0 (the library would read it as
// its own default of 8, not the flag's), or when -tracelevel has no
// -trace file to write to.
func (f *sharedFlags) config(prog string) experiments.Config {
	for _, n := range []struct {
		flag string
		v    int
	}{{"days", *f.days}, {"trials", *f.trials}, {"workers", *f.workers}} {
		if n.v < 0 {
			fmt.Fprintf(os.Stderr, "%s: -%s %d is negative\n", prog, n.flag, n.v)
			os.Exit(2)
		}
	}
	if *f.trials == 0 {
		fmt.Fprintf(os.Stderr, "%s: -trials 0 runs no trial; give at least 1\n", prog)
		os.Exit(2)
	}
	if *f.traceLevel != 0 && *f.tracePath == "" {
		fmt.Fprintln(os.Stderr, prog+": -tracelevel needs -trace to name the file the trace is written to")
		os.Exit(2)
	}
	return experiments.Config{Seed: *f.seed, Days: *f.days, Sites: splitList(*f.site),
		Trials: *f.trials, AgentSlots: *f.agentSlots,
		Exec: experiments.Exec{Workers: *f.workers, Shards: *f.shards, TracePath: *f.tracePath, TraceLevel: *f.traceLevel}}
}

// runReplay re-runs a recorded trace: every trial runs again from its
// seed and must reproduce its recorded metrics exactly. With
// -counterfactual it instead re-runs one trial under alternative repair
// actions for the targeted diagnose decision and prints the outcome diff
// table.
func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file recorded by a traced campaign run (required)")
	workers := fs.Int("workers", 0, "worker pool size (0 = NumCPU)")
	jsonOut := fs.Bool("json", false, "print the machine-readable campaign JSON instead of tables")
	outFile := fs.String("out", "", "also write the replayed campaign JSON to this file")
	counterfactual := fs.String("counterfactual", "", "diagnose event to override, as EVENT-ID or TRIAL:EVENT-ID")
	alt := fs.String("alt", "", "comma-separated alternative repair actions for -counterfactual (default: two picked automatically; \"no-batch-rescue\" disables DGSPL rescue instead)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qossim replay -trace FILE [-workers W] [-json] [-out FILE] [-counterfactual [TRIAL:]EVENT [-alt LIST]]\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if *tracePath == "" || fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}
	if *alt != "" && *counterfactual == "" {
		fmt.Fprintln(os.Stderr, "qossim replay: -alt needs -counterfactual to name the decision it varies")
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "qossim replay: -workers %d is negative\n", *workers)
		os.Exit(2)
	}
	tf, err := experiments.ReadTraceFile(*tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossim replay:", err)
		os.Exit(1)
	}
	if *counterfactual != "" {
		table, err := experiments.CounterfactualTable(tf, *counterfactual, splitList(*alt), *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qossim replay:", err)
			os.Exit(1)
		}
		fmt.Print(table)
		return
	}
	res, err := experiments.ReplayTrace(tf, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossim replay:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "replay %s: %d trials reproduced their recorded metrics exactly\n", res.Name, len(res.Trials))
	js, err := marshalResults([]*campaign.Result{res})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossim replay: marshal:", err)
		os.Exit(1)
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, append(js, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "qossim replay:", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		os.Stdout.Write(append(js, '\n'))
	} else {
		fmt.Print(qoscluster.FormatCampaign(res))
	}
}

// startProfiles arms the requested pprof outputs around the campaign's
// trials and returns the function that flushes them: StopCPUProfile for
// the CPU profile, and a post-GC heap snapshot for the memory profile.
// Both paths are no-ops when their flag is empty; the returned stop is
// idempotent so error paths can flush early without double-closing.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "qossim campaign: -cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qossim campaign: -memprofile:", err)
				return
			}
			runtime.GC() // materialise the post-campaign live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qossim campaign: -memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "qossim campaign: -memprofile:", err)
			}
		}
	}
	return stop, nil
}

// traceableScenario reports whether a top-level scenario runs as a single
// campaign that -trace can record. "ablate" runs four campaigns that
// would overwrite one file, so it is excluded — name one ablation.
func traceableScenario(name string) bool {
	return name == "latency" || name == "mttr" || strings.HasPrefix(name, "ablate-")
}

// campaignNames resolves the -scenario flag, the -ablate list and the
// positional argument into the campaigns to run, rejecting conflicting
// combinations.
func campaignNames(scenario, ablate string, args []string) ([]string, error) {
	positional := ""
	switch len(args) {
	case 0:
	case 1:
		positional = args[0]
	default:
		return nil, fmt.Errorf("at most one positional scenario, got %v", args)
	}
	if scenario != "" && positional != "" && scenario != positional {
		return nil, fmt.Errorf("both -scenario %s and positional %s given", scenario, positional)
	}
	name := scenario
	if name == "" {
		name = positional
	}
	if ablate != "" {
		if name != "" {
			return nil, fmt.Errorf("-ablate cannot be combined with scenario %q", name)
		}
		if ablate == "all" {
			return experiments.AblateScenarios, nil
		}
		var names []string
		for _, part := range strings.Split(ablate, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			names = append(names, "ablate-"+strings.TrimPrefix(part, "ablate-"))
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("-ablate %q names no ablations", ablate)
		}
		return names, nil
	}
	if name == "" {
		name = "fig2"
	}
	return []string{name}, nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parsePeriods parses a comma-separated duration list into simulated
// times (e.g. "1m,5m,15m,1h").
func parsePeriods(s string) ([]simclock.Time, error) {
	var out []simclock.Time
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, err
		}
		if d <= 0 {
			return nil, fmt.Errorf("cron period %q must be positive", part)
		}
		out = append(out, simclock.Time(d))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty period list %q", s)
	}
	return out, nil
}

// marshalResults emits one campaign as its canonical record and several
// as a JSON array of records, both deterministic for identical trials.
func marshalResults(results []*campaign.Result) ([]byte, error) {
	if len(results) == 1 {
		return results[0].JSON()
	}
	return json.MarshalIndent(results, "", "  ")
}
