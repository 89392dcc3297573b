package experiments

import (
	qoscluster "repro"
	"repro/internal/simclock"
)

// The ablate-* scenarios exercise the paper's design decisions (§3: a
// short cron period, DGSPL batch rescue, the private agent network,
// non-resident agents), each as a multi-seed campaign sweeping one option
// axis:
//
//	ablate-cron      cron period X ∈ {1m, 5m, 15m, 60m} — detection
//	                 latency and residual downtime scale with X.
//	ablate-rescue    DGSPL batch rescue on/off — failed overnight jobs
//	                 stay dead without it.
//	ablate-net       private agent network on/off — without it, all
//	                 agent traffic rides the public LAN.
//	ablate-resident  non-resident agents — the duty-cycled footprint vs
//	                 what the same suite would cost if it stayed
//	                 resident like the commercial monitor.
//
// All spans obey Config.AblationDays; there is no single-seed path.

// AblateScenarios lists the ablation campaign names in the order above;
// the "ablate" scenario and the CLI's -ablate all expand to it.
var AblateScenarios = []string{"ablate-cron", "ablate-rescue", "ablate-net", "ablate-resident"}

// defaultCronPeriods is the ablate-cron sweep axis when Config does not
// override it: the paper's 5 minutes bracketed by a faster and two
// slower periods.
var defaultCronPeriods = []simclock.Time{
	simclock.Minute, 5 * simclock.Minute, 15 * simclock.Minute, 60 * simclock.Minute,
}

func (c Config) cronPeriods() []simclock.Time {
	if len(c.CronPeriods) > 0 {
		return c.CronPeriods
	}
	return defaultCronPeriods
}

// ablateCronMetrics reports the quantities that scale with the cron
// period: residual downtime and detection latency.
func ablateCronMetrics(r qoscluster.Report) map[string]float64 {
	return map[string]float64{
		"downtime_h/total": r.Total.Hours(),
		"detect_mean_s":    r.MeanDetect.Duration().Seconds(),
		"detect_p95_s":     r.P95Detect.Duration().Seconds(),
	}
}

// ablateRescueMetrics reports the batch outcomes the DGSPL resubmission
// path changes.
func ablateRescueMetrics(r qoscluster.Report) map[string]float64 {
	return map[string]float64{
		"jobs_done":        float64(r.JobsDone),
		"jobs_failed":      float64(r.JobsFailed),
		"jobs_resubmitted": float64(r.Resubmitted),
		"downtime_h/total": r.Total.Hours(),
	}
}

// ablateNetMetrics reports where the agent traffic landed.
func ablateNetMetrics(site *qoscluster.Site) map[string]float64 {
	vals := map[string]float64{
		"public_lan_mb":  float64(site.Public.Stats().Bytes) / (1 << 20),
		"private_lan_mb": 0,
	}
	if site.Private != nil {
		vals["private_lan_mb"] = float64(site.Private.Stats().Bytes) / (1 << 20)
	}
	return vals
}

// netDays shortens the ablate-net span: traffic accumulates fast, so a
// third of the ablation span (a month at the default 90 days) suffices.
// The shortened span is what the matrix records, so the campaign JSON
// and group labels state the days actually simulated.
func netDays(ablationDays int) int {
	if d := ablationDays / 3; d >= 1 {
		return d
	}
	return 1
}

// residentMetrics contrasts the duty-cycled agent footprint with the
// resident BMC-style monitor and with what the same agent suite would
// hold if it stayed resident. The bmc/agent means come from
// overheadMetrics so ablate-resident and fig3/fig4/overhead can never
// disagree on the shared keys.
func residentMetrics(seed uint64) map[string]float64 {
	vals := overheadMetrics("overhead", seed)
	// A resident suite would hold its run-time demand continuously.
	const agentsPerHost = 5
	resCPU := agentsPerHost * 0.054 / 8 * 100 // % of an 8-CPU host
	resMem := agentsPerHost * 1.6
	vals["resident_cpu_pct"] = resCPU
	vals["resident_mem_mb"] = resMem
	if m := vals["agent_cpu_pct"]; m > 0 {
		vals["resident_vs_cron_cpu_x"] = resCPU / m
	}
	if m := vals["agent_mem_mb"]; m > 0 {
		vals["resident_vs_cron_mem_x"] = resMem / m
	}
	return vals
}
