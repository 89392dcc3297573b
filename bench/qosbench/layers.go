package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// profiled runs fn under a CPU profile written to the trace directory
// and returns the decoded samples.
func (b *bench) profiled(fn func() error) ([]sample, error) {
	path := filepath.Join(b.traceDir, b.w.name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		b.r.failures = append(b.r.failures, fmt.Sprintf("profile: %v", err))
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		b.r.failures = append(b.r.failures, fmt.Sprintf("profile: %v", err))
		return nil, err
	}
	start := time.Now()
	runErr := fn()
	pprof.StopCPUProfile()
	b.sp.add("traced run", 0, start, time.Now(), nil)
	if err := f.Close(); err != nil {
		b.r.failures = append(b.r.failures, fmt.Sprintf("profile: %v", err))
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	samples, err := readProfile(path)
	if err != nil {
		b.r.failures = append(b.r.failures, err.Error())
	}
	return samples, err
}

// layers fills the per-layer metrics of a traced run: the counts, the
// profile's layer split, the runtime's view of the traced window (events
// is how many simulated events fired in it) and the set-up spans. The
// peak heap and the tracing overhead compare with the untraced window.
func (b *bench) layers(counts map[string]float64, a attribution, untraced, traced window, events uint64) {
	r := b.r
	for name, v := range counts {
		r.setLayer(name, countUnit(name), v)
	}
	before, after := traced.before, traced.after
	r.setLayer("runtime.cpu_util", "frac", cpuUtil(before, after))
	r.setLayer("runtime.gc_cpu_frac", "frac", gcFrac(before, after))
	r.setLayer("runtime.alloc_mb_per_simday", "MB/simday", ratio(float64(after.allocs-before.allocs)/(1<<20), traced.simDays))
	r.setLayer("runtime.peak_heap_mb", "MB", untraced.peakMB)
	r.setLayer("runtime.trace_overhead_frac", "frac", 1-ratio(traced.simDaysPerS(), untraced.simDaysPerS()))
	r.setLayer("simclock.ns_per_event", "ns", ratio(float64(traced.wall.Nanoseconds()), float64(events)))
	r.setLayer("simclock.dispatch_frac", "frac", a.sub[dispatchLayer])
	r.setLayer("simclock.pool_frac", "frac", a.pool)
	shards := float64(max(b.w.shards, 1))
	r.setLayer("simclock.amdahl_bound", "x", 1/((1-a.prepare)+a.prepare/shards))
	r.setLayer("agent.observe_frac", "frac", a.observe)
	r.setLayer("agent.apply_frac", "frac", a.apply)
	for _, l := range selfLayers {
		r.setLayer(l+".self_frac", "frac", a.self[l])
	}
	for _, l := range subLayers {
		r.setLayer(l+".sub_frac", "frac", a.sub[l])
	}
	r.setLayer("campaign.worker_util", "frac", 0)
	r.setLayer("campaign.matrix_s", "s", 0)
	r.setLayer("qoscluster.build_s", "s", median(b.st.build))
	r.setLayer("qoscluster.deploy_s", "s", median(b.st.deploy))
}

func countUnit(name string) string {
	switch name {
	case "netsim.mb":
		return "MB"
	case "probe.per_batch":
		return "probes/batch"
	case "agent.skip_ratio", "agent.heal_ratio", "probe.fail_ratio", "lsf.fail_ratio":
		return "frac"
	}
	return "count"
}
