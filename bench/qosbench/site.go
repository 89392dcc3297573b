package main

import (
	"fmt"
	"maps"
	"time"

	qoscluster "repro"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simclock"
)

// pass is one timed run of a site over the workload's span.
type pass struct {
	window
	chunksMS   []float64 // host-normalized
	rawMS      []float64
	firedStart uint64
	pendingMax int
	digestAt   uint64 // report digest at verifyHours
	digestEnd  uint64
	counts     map[string]float64
}

func (b *bench) runSite() {
	w, r := b.w, b.r
	r.planned = w.hours + 2 // chunks; reference digest, report sanity
	if b.traceDir != "" {
		r.planned += w.hours + 2 // traced chunks; counts and digest repeat
	}
	site, err := b.setups()
	b.setupE2E()
	if err != nil {
		r.op("setup", err)
		return
	}
	runSpan := time.Now()
	p, err := b.sitePass(site, "simhour")
	b.sp.add("run", 0, runSpan, time.Now(), nil)
	r.digest = p.digestEnd
	b.siteE2E(p)
	if err != nil {
		return
	}

	vStart := time.Now()
	b.verifySite(site, p)
	b.sp.add("verify", 0, vStart, time.Now(), nil)

	if b.traceDir == "" {
		return
	}
	if err := site.Reset(b.seed); err != nil {
		r.op("reset for traced run", err)
		return
	}
	if err := site.Run(1); err != nil {
		r.op("deploy for traced run", err)
		return
	}
	var tp *pass
	samples, err := b.profiled(func() error {
		var err error
		tp, err = b.sitePass(site, "traced simhour")
		return err
	})
	if err != nil {
		return
	}
	r.check("counts repeat", maps.Equal(p.counts, tp.counts), "traced run counts differ from the untraced run")
	r.check("digest repeats", p.digestEnd == tp.digestEnd,
		fmt.Sprintf("traced digest %016x, untraced %016x", tp.digestEnd, p.digestEnd))
	b.layers(tp.counts, attribute(samples), p.window, tp.window, uint64(tp.counts["simclock.events"])-tp.firedStart)
}

// sitePass advances a deployed site through the workload's span in
// 1-sim-hour chunks, each timed between two host probes; nothing else is
// timed. A failed chunk aborts the pass.
func (b *bench) sitePass(site *qoscluster.Site, label string) (*pass, error) {
	w := b.w
	p := &pass{}
	var heap peakHeap
	heap.watch()
	defer func() { p.peakMB = heap.stop() }()
	p.firedStart = site.Sim.Fired()
	p.before = readUsage()
	steps := newStepTimer()
	for h := 1; h <= w.hours; h++ {
		t0 := time.Now()
		err := site.Run(simclock.Time(h) * simclock.Hour)
		if !b.r.op(fmt.Sprintf("%s %d", label, h), err) {
			return p, err
		}
		st := steps.done(t0)
		b.sp.add(fmt.Sprintf("%s[%d]", label, h), 0, t0, st.end, map[string]any{"host_factor": st.factor})
		p.chunksMS = append(p.chunksMS, ms(st.norm))
		p.rawMS = append(p.rawMS, ms(st.raw))
		p.factors = append(p.factors, st.factor)
		p.wall += st.norm
		p.rawWall += st.raw
		p.pendingMax = max(p.pendingMax, site.Sim.Pending())
		if h == w.verifyHours {
			p.digestAt, _ = digestOf(site.Report())
		}
	}
	p.after = readUsage()
	p.simDays = float64(w.hours) / 24
	p.digestEnd, _ = digestOf(site.Report())
	p.counts = siteCounts(site, p.pendingMax)
	return p, nil
}

func (b *bench) siteE2E(p *pass) {
	r := b.r
	if len(p.chunksMS) == 0 {
		return
	}
	days := float64(len(p.chunksMS)) / 24
	r.setE2E("sim_days_per_s", "simday/s", ratio(days, p.wall.Seconds()), len(p.chunksMS))
	r.setE2E("step_ms_p50", "ms", percentile(p.chunksMS, 0.5), len(p.chunksMS))
	r.setE2E("step_ms_p90", "ms", percentile(p.chunksMS, 0.9), len(p.chunksMS))
	r.setRaw("sim_days_per_s", ratio(days, p.rawWall.Seconds()))
	r.setRaw("step_ms_p50", percentile(p.rawMS, 0.5))
	r.setRaw("step_ms_p90", percentile(p.rawMS, 0.9))
	r.hostFactor = median(p.factors)
}

// verifySite checks the timed run against a reference run outside the
// timed window, and checks the report's numbers.
func (b *bench) verifySite(site *qoscluster.Site, p *pass) {
	w, r := b.w, b.r
	r.op("verify report sane", sane(site.Report()))
	ref := site
	var err error
	if w.verify == verifySerial {
		ref, err = b.newSite(0)
	} else {
		err = site.Reset(b.seed)
	}
	if err == nil {
		err = ref.Run(simclock.Time(w.verifyHours) * simclock.Hour)
	}
	var got uint64
	if err == nil {
		got, err = digestOf(ref.Report())
	}
	verifyDigest(r, fmt.Sprintf("%s run of the first %d sim-hours", w.verify, w.verifyHours), p.digestAt, got, err)
}

// countNames are the per-layer counts and the ratios derived from them.
// Every workload reports all of them; a layer a workload never runs
// reads 0.
var countNames = []string{
	"simclock.events", "simclock.pending_max",
	"agent.runs", "agent.skipped_lock", "agent.findings", "agent.healed", "agent.escalated",
	"agent.skip_ratio", "agent.heal_ratio",
	"probe.probes", "probe.fails", "probe.batches", "probe.per_batch", "probe.fail_ratio",
	"faultinject.injections", "faultinject.open_at_end", "metrics.incidents",
	"lsf.jobs_done", "lsf.jobs_failed", "lsf.fail_ratio", "workload.jobs_submitted",
	"netsim.sent", "netsim.dropped", "netsim.mb", "notify.sent",
	"adminsrv.dlsp_received", "adminsrv.flag_sweeps", "adminsrv.resubmissions",
	"campaign.trials",
}

func newCounts() map[string]float64 {
	c := make(map[string]float64, len(countNames))
	for _, name := range countNames {
		c[name] = 0
	}
	return c
}

// siteCounts reads the layer counters through the site's public
// accessors. They are simulated quantities: a given seed and span must
// reproduce them exactly.
func siteCounts(s *qoscluster.Site, pendingMax int) map[string]float64 {
	c := newCounts()
	c["simclock.events"] = float64(s.Sim.Fired())
	c["simclock.pending_max"] = float64(pendingMax)
	for _, a := range s.Agents {
		ac := a.Counters()
		c["agent.runs"] += float64(ac.Runs)
		c["agent.skipped_lock"] += float64(ac.SkippedLock)
		c["agent.findings"] += float64(ac.Findings)
		c["agent.healed"] += float64(ac.Healed)
		c["agent.escalated"] += float64(ac.Escalated)
	}
	c["agent.skip_ratio"] = ratio(c["agent.skipped_lock"], c["agent.runs"]+c["agent.skipped_lock"])
	c["agent.heal_ratio"] = ratio(c["agent.healed"], c["agent.findings"])
	if s.Probes != nil {
		c["probe.probes"] = float64(s.Probes.Probes())
		c["probe.fails"] = float64(s.Probes.Fails())
		c["probe.batches"] = float64(s.Probes.Batches())
	}
	c["probe.per_batch"] = ratio(c["probe.probes"], c["probe.batches"])
	c["probe.fail_ratio"] = ratio(c["probe.fails"], c["probe.probes"])
	if s.Campaign != nil {
		for _, cat := range metrics.Categories {
			c["faultinject.injections"] += float64(s.Campaign.Injections(cat))
		}
	}
	c["faultinject.open_at_end"] = float64(s.Registry.OpenCount())
	c["metrics.incidents"] = float64(len(s.Ledger.Incidents()))
	c["lsf.jobs_done"] = float64(s.LSF.Completed)
	c["lsf.jobs_failed"] = float64(s.LSF.Failed)
	c["lsf.fail_ratio"] = ratio(c["lsf.jobs_failed"], c["lsf.jobs_done"]+c["lsf.jobs_failed"])
	c["workload.jobs_submitted"] = float64(s.Gen.JobsSubmitted)
	for _, n := range []*netsim.Network{s.Public, s.Private} {
		if n == nil {
			continue // no private network
		}
		st := n.Stats()
		c["netsim.sent"] += float64(st.Sent)
		c["netsim.dropped"] += float64(st.Dropped)
		c["netsim.mb"] += float64(st.Bytes) / (1 << 20)
	}
	c["notify.sent"] = float64(len(s.Bus.History()))
	if s.Admin != nil {
		c["adminsrv.dlsp_received"] = float64(s.Admin.DLSPReceived)
		c["adminsrv.flag_sweeps"] = float64(s.Admin.FlagSweeps)
		c["adminsrv.resubmissions"] = float64(s.Admin.Resubmissions)
	}
	return c
}
