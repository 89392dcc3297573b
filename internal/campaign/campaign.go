// Package campaign runs experiment campaigns: a matrix of
// {seeds × scenarios × site sizes × modes × option axes} fanned across a
// bounded worker pool, with per-trial metrics folded into statistical
// aggregates (mean / min / max / 95% confidence interval across seeds).
// Option axes (cron period, agent set, the boolean ablation toggles, and
// the opaque Overrides label) let one campaign sweep scenario options per
// cell instead of always running defaults.
//
// The package is deliberately generic: a Trial is a coordinate in the
// matrix, and the caller supplies a RunFunc that executes one trial and
// returns flat named metrics. Each RunFunc invocation is expected to build
// its own simulation (own simclock.Sim, own site), so trials share no
// state and parallelise embarrassingly: per-seed results are bit-for-bit
// identical regardless of worker count or completion order.
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/simclock"
)

// Cell is the non-seed coordinate of a campaign trial: the matrix cell
// its seeds replicate, and the key Aggregate groups trials by. Axes the
// matrix does not sweep are left as their zero values; a zero option axis
// means "the scenario's default" (e.g. CronPeriod 0 is the paper's 5
// minutes). Trial and Group embed it untagged, so encoding/json flattens
// its fields into their records in declaration order. Every field is a
// model coordinate: how a trial executes (workers, shards, tracing) is
// the run function's business and never appears here.
type Cell struct {
	Scenario string `json:"scenario,omitempty"`
	Site     string `json:"site,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Days     int    `json:"days,omitempty"`
	// Option axes: scenario options swept per cell rather than fixed at
	// their defaults. CronPeriod is the agents' wake-up period X;
	// AgentSet names the per-host deployment ("lean" or "full"); the
	// booleans are ablation toggles (experiments/ablate.go lists the
	// ablations); Overrides names an opaque caller-registered options
	// mutator applied after the axes.
	CronPeriod        simclock.Time `json:"cron_period,omitempty"`
	AgentSet          string        `json:"agent_set,omitempty"`
	NoBatchRescue     bool          `json:"no_batch_rescue,omitempty"`
	DisablePrivateNet bool          `json:"disable_private_net,omitempty"`
	Overrides         string        `json:"overrides,omitempty"`
	// TierFaults is the per-tier fault-intensity coordinate: a spec like
	// "web=2,db=0.5" scaling the named tiers' fault selection weights.
	// "" means the topology's own per-tier specs unscaled.
	TierFaults string `json:"tier_faults,omitempty"`
	// Workload names the statistical workload spec driving the trial's
	// offered load (a registered spec name; file-loaded specs register
	// under their declared name at resolve time). "" means the site's
	// own workload — the topology's named spec, or else `paper`.
	Workload string `json:"workload,omitempty"`
	// TierLoad is the per-tier load-intensity coordinate, the workload
	// twin of TierFaults: "web=2,db=0.5" multiplies the named tiers'
	// resolved workload-domain weights. "" means unscaled.
	TierLoad string `json:"tier_load,omitempty"`
	// AgentSlots is the agent cron dispatch slot count, set from
	// Matrix.AgentSlots like Days. It is a model knob: quantizing agent
	// wake-ups onto the slot grid changes the simulated trajectory, so it
	// belongs in the canonical JSON. 0 (omitted) keeps the continuous
	// per-agent phases. It is the last field, so a Trial record keeps it
	// after the other coordinates.
	AgentSlots int `json:"agent_slots,omitempty"`
}

// Trial is one coordinate of the campaign matrix: a seed of one Cell,
// and nothing else — a RunFunc takes how to execute it from whoever
// built the RunFunc.
type Trial struct {
	Index int    `json:"index"`
	Seed  uint64 `json:"seed"`
	Cell
}

// Matrix enumerates the campaign: the cross product of its axes, one Trial
// per combination. Empty axes contribute a single zero-valued coordinate,
// so a plain multi-seed sweep is just Matrix{Seeds: Seeds(7, 16)}. Like
// Cell, it holds model coordinates only.
type Matrix struct {
	Seeds     []uint64 `json:"seeds"`
	Scenarios []string `json:"scenarios,omitempty"`
	Sites     []string `json:"sites,omitempty"`
	Modes     []string `json:"modes,omitempty"`
	Days      int      `json:"days,omitempty"`
	// Option axes (see Cell). A boolean axis sweeps explicit values —
	// []bool{false, true} is the usual with/without ablation pair.
	CronPeriods       []simclock.Time `json:"cron_periods,omitempty"`
	AgentSets         []string        `json:"agent_sets,omitempty"`
	NoBatchRescue     []bool          `json:"no_batch_rescue,omitempty"`
	DisablePrivateNet []bool          `json:"disable_private_net,omitempty"`
	Overrides         []string        `json:"overrides,omitempty"`
	// TierFaults sweeps per-tier fault-intensity specs (see
	// Cell.TierFaults); the usual axis pairs the default "" against one
	// or more scaled cells.
	TierFaults []string `json:"tier_faults,omitempty"`
	// Workloads sweeps statistical workload specs by registered name
	// (see Cell.Workload); "" in the list means the site's default.
	Workloads []string `json:"workloads,omitempty"`
	// TierLoads sweeps per-tier load-intensity specs (see
	// Cell.TierLoad).
	TierLoads []string `json:"tier_loads,omitempty"`
	// AgentSlots is set on every cell (see Cell.AgentSlots). Not an axis
	// here, but a model knob recorded in the JSON.
	AgentSlots int `json:"agent_slots,omitempty"`
}

// Seeds returns n sequential seeds starting at base — the conventional way
// to name a campaign's replications.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, base+uint64(i))
	}
	return out
}

// Trials enumerates the cross product in deterministic order: scenario
// outermost, then site, mode, cron period, agent set, the ablation
// toggles (batch rescue, private net), overrides, the
// per-tier fault-intensity spec, the workload spec and the per-tier
// load-intensity spec, with the seed axis innermost so that one
// aggregation group's trials are contiguous.
func (m Matrix) Trials() []Trial {
	cells := []Cell{{Days: m.Days, AgentSlots: m.AgentSlots}}
	cells = expand(cells, m.Scenarios, func(c *Cell, v string) { c.Scenario = v })
	cells = expand(cells, m.Sites, func(c *Cell, v string) { c.Site = v })
	cells = expand(cells, m.Modes, func(c *Cell, v string) { c.Mode = v })
	cells = expand(cells, m.CronPeriods, func(c *Cell, v simclock.Time) { c.CronPeriod = v })
	cells = expand(cells, m.AgentSets, func(c *Cell, v string) { c.AgentSet = v })
	cells = expand(cells, m.NoBatchRescue, func(c *Cell, v bool) { c.NoBatchRescue = v })
	cells = expand(cells, m.DisablePrivateNet, func(c *Cell, v bool) { c.DisablePrivateNet = v })
	cells = expand(cells, m.Overrides, func(c *Cell, v string) { c.Overrides = v })
	cells = expand(cells, m.TierFaults, func(c *Cell, v string) { c.TierFaults = v })
	cells = expand(cells, m.Workloads, func(c *Cell, v string) { c.Workload = v })
	cells = expand(cells, m.TierLoads, func(c *Cell, v string) { c.TierLoad = v })
	var out []Trial
	for _, c := range cells {
		for _, seed := range m.Seeds {
			out = append(out, Trial{Index: len(out), Seed: seed, Cell: c})
		}
	}
	return out
}

// expand crosses cells with one axis, the axis varying fastest. An empty
// axis contributes its zero value, which leaves the cells as they are.
func expand[T any](cells []Cell, axis []T, set func(*Cell, T)) []Cell {
	if len(axis) == 0 {
		return cells
	}
	out := make([]Cell, 0, len(cells)*len(axis))
	for _, c := range cells {
		for _, v := range axis {
			set(&c, v)
			out = append(out, c)
		}
	}
	return out
}

// RunFunc executes one trial and returns its scalar metrics keyed by name
// (e.g. "downtime_h/mid-crash"). It must be safe for concurrent use from
// multiple goroutines and must derive all randomness from the trial's
// seed so that results do not depend on scheduling.
type RunFunc func(Trial) (map[string]float64, error)

// TrialResult is one executed trial. Elapsed is wall-clock measurement
// noise and therefore excluded from the JSON form, which must be
// byte-identical across worker counts.
type TrialResult struct {
	Trial   Trial              `json:"trial"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Err     string             `json:"error,omitempty"`
	Elapsed time.Duration      `json:"-"`
}

// Result is a completed campaign: the matrix, every trial in matrix
// order, and the per-group statistical aggregates. The JSON form is the
// machine-readable campaign record (the BENCH_*.json trajectory feeds on
// it); wall-clock fields are deliberately excluded so identical campaigns
// serialise identically.
type Result struct {
	Name    string        `json:"name,omitempty"`
	Matrix  Matrix        `json:"matrix"`
	Trials  []TrialResult `json:"trials"`
	Groups  []Group       `json:"groups"`
	Workers int           `json:"-"`
	Wall    time.Duration `json:"-"`
}

// JSON renders the result in its canonical machine-readable form.
// encoding/json sorts map keys, so the bytes are deterministic for
// identical trial metrics.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// SerialTime sums per-trial wall time: an estimate of the cost the
// campaign would have paid running serially. On an oversubscribed
// machine (workers > cores) per-trial elapsed includes time spent
// descheduled, so this overestimates; with workers ≤ cores it is close.
func (r *Result) SerialTime() time.Duration {
	var sum time.Duration
	for _, t := range r.Trials {
		sum += t.Elapsed
	}
	return sum
}

// Speedup reports SerialTime over actual wall time — the parallel
// efficiency headline (zero before the campaign has run).
func (r *Result) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.SerialTime()) / float64(r.Wall)
}

// Errs returns the trials that failed.
func (r *Result) Errs() []TrialResult {
	var out []TrialResult
	for _, t := range r.Trials {
		if t.Err != "" {
			out = append(out, t)
		}
	}
	return out
}

// Run executes the matrix on a worker pool and aggregates the results.
// workers <= 0 selects the runtime.NumCPU() bound (trials are CPU-bound
// simulations; more buys nothing); an explicit count is honoured as given
// — oversubscribing is wasteful but harmless, and exercising it is
// exactly how the determinism contract gets tested. The pool never
// exceeds the trial count. Results land in matrix order regardless of
// completion order. A panicking trial is recorded as that trial's error
// rather than tearing down the campaign.
func Run(name string, m Matrix, workers int, fn RunFunc) (*Result, error) {
	if fn == nil {
		return nil, fmt.Errorf("campaign %s: nil RunFunc", name)
	}
	trials := m.Trials()
	if len(trials) == 0 {
		return nil, fmt.Errorf("campaign %s: empty matrix (no seeds?)", name)
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(trials) {
		workers = len(trials)
	}

	start := time.Now()
	results := make([]TrialResult, len(trials))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				vals, err := runTrial(name, fn, trials[i])
				tr := TrialResult{Trial: trials[i], Metrics: sanitize(vals), Elapsed: time.Since(t0)}
				if err != nil {
					tr.Err = err.Error()
					tr.Metrics = nil
				}
				results[i] = tr
			}
		}()
	}
	for i := range trials {
		idx <- i
	}
	close(idx)
	wg.Wait()

	res := &Result{
		Name: name, Matrix: m, Trials: results,
		Groups:  Aggregate(results),
		Workers: workers, Wall: time.Since(start),
	}
	return res, nil
}

// runTrial shields the pool from a panicking trial. It runs the trial under
// pprof labels naming the campaign cell, so a CPU profile captured across a
// campaign (qossim campaign -cpuprofile) attributes samples per
// scenario/site/mode/seed without ad-hoc patches.
func runTrial(name string, fn RunFunc, t Trial) (vals map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trial %d (seed %d, scenario %q) panicked: %v", t.Index, t.Seed, t.Scenario, r)
		}
	}()
	pprof.Do(context.Background(), pprof.Labels(
		"campaign", name,
		"scenario", t.Scenario,
		"site", t.Site,
		"mode", t.Mode,
		"seed", strconv.FormatUint(t.Seed, 10),
	), func(context.Context) {
		vals, err = fn(t)
	})
	return vals, err
}

// sanitize drops non-finite values: they carry no aggregatable information
// and would make the JSON form unmarshalable.
func sanitize(vals map[string]float64) map[string]float64 {
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(vals, k)
		}
	}
	return vals
}
