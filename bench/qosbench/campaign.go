package main

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	qoscluster "repro"
	"repro/experiments"
	"repro/internal/campaign"
	"repro/internal/simclock"
)

func (b *bench) runCampaign() {
	w, r := b.w, b.r
	trials := len(w.cells) * w.seedsPerCell
	r.planned = trials + 3 // trials; no errors, RunTrial reproduces, metrics sane
	if b.traceDir != "" {
		r.planned += trials + 2 // traced trials; mirror agrees, JSON repeats
	}
	if trials%w.workers != 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d trials do not fill waves of %d workers", trials, w.workers))
		return
	}
	b.cfg = experiments.Config{Seed: b.seed, Days: w.days, Sites: []string{w.site}, Workloads: w.cells}
	m, err := experiments.CampaignMatrix("before", b.cfg, w.seedsPerCell)
	if err != nil {
		r.op("campaign matrix", err)
		return
	}
	// Set-up is what a user waits for before the first trial: the
	// matrix, plus a site skeleton (NewSite and deploy) for a worker's
	// first trial of a cell.
	_, err = b.setups()
	b.setupE2E()
	if err != nil {
		r.op("setup", err)
		return
	}
	cp, err := b.campaignPass(m, "trial")
	if err != nil {
		r.failures = append(r.failures, err.Error())
		return
	}
	r.digest = cp.digest
	r.setE2E("sim_days_per_s", "simday/s", cp.simDaysPerS(), len(cp.trialMS))
	r.setE2E("step_ms_p50", "ms", percentile(cp.trialMS, 0.5), len(cp.trialMS))
	r.setE2E("step_ms_p90", "ms", percentile(cp.trialMS, 0.9), len(cp.trialMS))
	r.setRaw("sim_days_per_s", ratio(cp.simDays, cp.rawWall.Seconds()))
	r.setRaw("step_ms_p50", percentile(cp.rawMS, 0.5))
	r.setRaw("step_ms_p90", percentile(cp.rawMS, 0.9))
	r.hostFactor = median(cp.factors)

	vStart := time.Now()
	r.check("no trial errors", len(cp.res.Errs()) == 0, fmt.Sprintf("%d trials failed", len(cp.res.Errs())))
	last := cp.res.Trials[w.seedsPerCell-1] // last trial of cell 0
	fresh, err := experiments.RunTrial(last.Trial)
	if err == nil && !maps.Equal(fresh, last.Metrics) {
		err = fmt.Errorf("fresh RunTrial of trial %d differs from the pooled result", last.Trial.Index)
	}
	r.op("verify RunTrial reproduces the pooled trial", err)
	var insane error
	for _, t := range cp.res.Trials {
		if err := sane(t.Metrics); err != nil && insane == nil {
			insane = fmt.Errorf("trial %d: %v", t.Trial.Index, err)
		}
	}
	r.op("verify metrics sane", insane)
	b.sp.add("verify", 0, vStart, time.Now(), nil)

	if b.traceDir == "" {
		return
	}
	counts, nsPerEvent, err := b.mirrorTrial(last)
	if !r.op("verify mirror site agrees with the pooled trial", err) {
		counts = newCounts()
	}
	var tp *campaignPass
	samples, err := b.profiled(func() error {
		var err error
		tp, err = b.campaignPass(m, "traced trial")
		return err
	})
	if err != nil {
		return
	}
	r.check("campaign JSON repeats", tp.digest == cp.digest,
		fmt.Sprintf("traced digest %016x, untraced %016x", tp.digest, cp.digest))
	counts["campaign.trials"] = float64(len(tp.res.Trials))
	b.layers(counts, attribute(samples), cp.window, tp.window, 0)
	r.setLayer("simclock.ns_per_event", "ns", nsPerEvent)
	// Busy share of the workers: campaign.Result.Speedup would count
	// the barrier wait as trial time.
	var busyMS float64
	for _, x := range tp.rawMS {
		busyMS += x
	}
	r.setLayer("campaign.worker_util", "frac", ratio(busyMS/1e3, float64(w.workers)*tp.rawWall.Seconds()))
	r.setLayer("campaign.matrix_s", "s", median(b.st.matrix))
}

type campaignPass struct {
	window
	res     *campaign.Result
	trialMS []float64 // host-normalized
	rawMS   []float64
	digest  uint64
}

// campaignPass runs the matrix through campaign.Run with a pooled
// RunFunc wrapped to time each trial. The trials run in waves, one per
// worker, and the host is probed between waves, while no trial is in
// flight: a wave's trials are divided by the factor of the probes at its
// two ends, and the campaign's wall time is the sum of its waves.
func (b *bench) campaignPass(m campaign.Matrix, label string) (*campaignPass, error) {
	cp := &campaignPass{}
	var mu sync.Mutex
	pooled := experiments.NewPooledRunFunc()
	var heap peakHeap
	heap.watch()
	cp.before = readUsage()
	wv := newWaves(b.w.workers)
	fn := func(t campaign.Trial) (map[string]float64, error) {
		lane := b.sp.acquireLane()
		t0 := time.Now()
		// Deferred, so a panicking trial still reaches the barrier and
		// never strands the other worker there.
		defer func() {
			t1 := time.Now()
			b.sp.releaseLane(lane)
			f := wv.arrive().factor
			b.sp.add(fmt.Sprintf("%s[%d] cell %q", label, t.Index, t.Workload), lane, t0, t1,
				map[string]any{"seed": t.Seed, "host_factor": f})
			mu.Lock()
			cp.trialMS = append(cp.trialMS, ms(t1.Sub(t0))/f)
			cp.rawMS = append(cp.rawMS, ms(t1.Sub(t0)))
			mu.Unlock()
		}()
		return pooled(t)
	}
	t0 := time.Now()
	res, err := campaign.Run("qosbench", m, b.w.workers, fn)
	b.sp.add("run", 0, t0, time.Now(), nil)
	cp.after = readUsage()
	cp.peakMB = heap.stop()
	if err != nil {
		return cp, err
	}
	cp.res = res
	for _, s := range wv.done {
		cp.wall += s.norm
		cp.rawWall += s.raw
		cp.factors = append(cp.factors, s.factor)
	}
	cp.simDays = float64(len(res.Trials) * b.w.days)
	for _, t := range res.Trials {
		var terr error
		if t.Err != "" {
			terr = errors.New(t.Err)
		}
		b.r.op(fmt.Sprintf("%s %d", label, t.Trial.Index), terr)
	}
	cp.digest, err = digestOf(res)
	return cp, err
}

// waves is a barrier the campaign's workers meet at after every trial.
// The last to arrive ends the wave and probes the host while every
// worker waits, so no trial is in flight during a probe. The trial
// count must be a multiple of the worker count.
type waves struct {
	mu      sync.Mutex
	cond    sync.Cond
	size    int
	arrived int
	steps   *stepTimer
	start   time.Time
	done    []step // the waves so far
}

func newWaves(workers int) *waves {
	w := &waves{size: workers, steps: newStepTimer(), start: time.Now()}
	w.cond.L = &w.mu
	return w
}

// arrive waits until every worker has finished its trial of the current
// wave and returns the wave.
func (w *waves) arrive() step {
	w.mu.Lock()
	defer w.mu.Unlock()
	wave := len(w.done)
	if w.arrived++; w.arrived == w.size {
		w.done = append(w.done, w.steps.done(w.start))
		w.arrived = 0
		w.start = time.Now()
		w.cond.Broadcast()
	}
	for len(w.done) == wave {
		w.cond.Wait()
	}
	return w.done[wave]
}

// mirrorTrial rebuilds one manual-mode trial through NewSite, the way the
// campaign builds its cell-0 sites, runs it in 1-sim-day chunks and reads
// the layer counters the pooled RunFunc cannot expose. Its report must
// agree with the pooled trial's metrics. It also returns the
// host-normalized time per simulated event.
func (b *bench) mirrorTrial(t campaign.TrialResult) (map[string]float64, float64, error) {
	site, err := qoscluster.NewSite(b.topo, qoscluster.WithSeed(t.Trial.Seed), qoscluster.WithMode(b.w.mode))
	if err != nil {
		return nil, 0, err
	}
	if err := site.Run(1); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	fired := site.Sim.Fired()
	pendingMax := 0
	steps := newStepTimer()
	var wall time.Duration
	for d := 1; d <= b.w.days; d++ {
		t0 := time.Now()
		if err := site.Run(simclock.Time(d) * simclock.Day); err != nil {
			return nil, 0, err
		}
		wall += steps.done(t0).norm
		pendingMax = max(pendingMax, site.Sim.Pending())
	}
	nsPerEvent := ratio(float64(wall.Nanoseconds()), float64(site.Sim.Fired()-fired))
	b.sp.add("mirror trial", 0, start, time.Now(), map[string]any{"seed": t.Trial.Seed})
	rep := site.Report()
	for name, got := range map[string]float64{
		"jobs_done":   float64(rep.JobsDone),
		"jobs_failed": float64(rep.JobsFailed),
		"open_faults": float64(rep.OpenFaults),
	} {
		if want := t.Metrics[name]; got != want {
			return nil, 0, fmt.Errorf("mirror %s = %v, pooled trial %v", name, got, want)
		}
	}
	return siteCounts(site, pendingMax), nsPerEvent, nil
}
