package qoscluster

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/lsf"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Report summarises a scenario run in the terms the paper's Section 4
// reports: downtime hours per error category, detection latencies by time
// window, incident MTTRs, and batch-job outcomes.
type Report struct {
	Mode Mode
	At   simclock.Time
	Rows []metrics.Summary
	// Tiers is the per-tier downtime breakdown, in topology order. It is
	// populated only for tiered sites (per-tier workload or fault domains
	// in play); untiered sites keep the site-global report unchanged.
	Tiers       []TierSummary
	Total       simclock.Time
	MeanDetect  simclock.Time
	P95Detect   simclock.Time
	DetectDay   simclock.Time // mean detection latency, weekday-day faults
	DetectNight simclock.Time // mean, overnight faults
	DetectWkend simclock.Time // mean, weekend faults
	MeanMTTR    simclock.Time
	JobsDone    int
	JobsFailed  int
	Resubmitted int
	AgentRuns   int
	AgentHeals  int
	Escalations int
	OpenFaults  int
}

// TierSummary is one tier's slice of the incident ledger: how many
// incidents landed on the tier's hosts and the downtime they cost.
type TierSummary struct {
	Tier      string
	Incidents int
	Downtime  simclock.Time
}

// TierSummaries computes the per-tier downtime breakdown at now, in
// topology declaration order. Incidents on hosts outside every tier (the
// mode-added administration pair) would be skipped; no injector targets
// them today.
func (s *Site) TierSummaries(now simclock.Time) []TierSummary {
	idx := make(map[string]int, len(s.Topo.Tiers))
	out := make([]TierSummary, len(s.Topo.Tiers))
	for i, tier := range s.Topo.Tiers {
		idx[tier.Name] = i
		out[i].Tier = tier.Name
	}
	for _, inc := range s.Ledger.Incidents() {
		if i, ok := idx[s.tierOf[inc.Host]]; ok {
			out[i].Incidents++
			out[i].Downtime += inc.Downtime(now)
		}
	}
	return out
}

// Report computes the current summary.
func (s *Site) Report() Report {
	now := s.Sim.Now()
	r := Report{
		Mode:  s.Opts.Mode,
		At:    now,
		Rows:  s.Ledger.Summaries(now),
		Total: s.Ledger.TotalDowntime(now),
	}
	if s.Tiered() {
		r.Tiers = s.TierSummaries(now)
	}
	lats := s.Ledger.DetectionLatencies(nil)
	r.MeanDetect = metrics.Mean(lats)
	r.P95Detect = metrics.Percentile(lats, 0.95)
	r.DetectDay = metrics.Mean(s.Ledger.DetectionLatencies(metrics.WindowDay))
	r.DetectNight = metrics.Mean(s.Ledger.DetectionLatencies(metrics.WindowOvernight))
	r.DetectWkend = metrics.Mean(s.Ledger.DetectionLatencies(metrics.WindowWeekend))
	r.MeanMTTR = metrics.Mean(s.Ledger.MTTRs(nil))
	counts := s.LSF.CountByState()
	r.JobsDone = counts[lsf.JobDone]
	r.JobsFailed = counts[lsf.JobFailed]
	if s.Admin != nil {
		r.Resubmitted = s.Admin.Resubmissions
	}
	for _, a := range s.Agents {
		c := a.Counters()
		r.AgentRuns += c.Runs
		r.AgentHeals += c.Healed
		r.Escalations += c.Escalated
	}
	r.OpenFaults = s.Registry.OpenCount()
	return r
}

// Format renders the report as the Figure-2-style table plus the latency
// and batch lines.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s operations, %.0f simulated days ===\n", r.Mode, r.At.Hours()/24)
	fmt.Fprintf(&b, "%-16s %10s %10s\n", "category", "incidents", "hours")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %10d %10.1f\n", row.Category, row.Incidents, row.Downtime.Hours())
	}
	fmt.Fprintf(&b, "%-16s %10s %10.1f\n", "TOTAL", "", r.Total.Hours())
	for _, row := range r.Tiers {
		fmt.Fprintf(&b, "tier %-11s %10d %10.1f\n", row.Tier, row.Incidents, row.Downtime.Hours())
	}
	fmt.Fprintf(&b, "detection: mean=%v p95=%v day=%v overnight=%v weekend=%v\n",
		round(r.MeanDetect), round(r.P95Detect), round(r.DetectDay), round(r.DetectNight), round(r.DetectWkend))
	fmt.Fprintf(&b, "repair:    mean MTTR=%v\n", round(r.MeanMTTR))
	fmt.Fprintf(&b, "batch:     done=%d failed=%d resubmitted=%d\n", r.JobsDone, r.JobsFailed, r.Resubmitted)
	if r.Mode == ModeAgents {
		fmt.Fprintf(&b, "agents:    runs=%d heals=%d escalations=%d open-faults=%d\n",
			r.AgentRuns, r.AgentHeals, r.Escalations, r.OpenFaults)
	}
	return b.String()
}

func round(t simclock.Time) simclock.Time {
	return t - t%simclock.Time(1e9) // whole seconds
}

// FormatCampaign renders a campaign result as aggregate tables with
// uncertainty: one table per matrix group, each metric as
// mean ± 95%-CI half-width with the min/max envelope over seeds. In
// multi-group campaigns every group after the first also gets a
// significance column: the two-sided p-value of its difference from the
// first group on that metric — a paired t-test on per-seed differences
// when the metric is present in every error-free trial of both cells
// (the matrix replicates cells over the same seed list), Welch's
// unequal-variance t-test when errors or conditionally-emitted metrics
// broke the seed alignment. Low p means the cells genuinely differ; "-"
// means too few samples to test.
func FormatCampaign(r *campaign.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== campaign %s: %d trials, %d groups ===\n", r.Name, len(r.Trials), len(r.Groups))
	var samples []map[string][]float64
	if len(r.Groups) > 1 {
		samples = r.GroupSamples()
	}
	for gi, g := range r.Groups {
		b.WriteByte('\n')
		fmt.Fprintf(&b, "--- %s", GroupLabel(g.Cell))
		fmt.Fprintf(&b, " (%d seeds", g.Seeds)
		if g.Errors > 0 {
			fmt.Fprintf(&b, ", %d FAILED", g.Errors)
		}
		b.WriteString(") ---\n")
		fmt.Fprintf(&b, "%-28s %12s %10s %12s %12s", "metric", "mean", "±95% CI", "min", "max")
		if samples != nil && gi > 0 {
			fmt.Fprintf(&b, " %10s", "p-vs-first")
		}
		b.WriteByte('\n')
		for _, name := range g.MetricNames() {
			s := g.Stats[name]
			fmt.Fprintf(&b, "%-28s %12.3f %10.3f %12.3f %12.3f", name, s.Mean, s.CI95, s.Min, s.Max)
			if samples != nil && gi > 0 {
				base := r.Groups[0]
				// Pairing by seed is only sound when the metric is present
				// in every error-free trial of both cells: conditionally
				// emitted metrics (a seed with no matching incidents
				// reports nothing) would otherwise pair sample i of one
				// cell against a different seed's sample in the other.
				pairOK := base.Errors == 0 && g.Errors == 0 && base.Seeds == g.Seeds &&
					len(samples[0][name]) == base.Seeds && len(samples[gi][name]) == g.Seeds
				b.WriteString(" " + significance(samples[0][name], samples[gi][name], pairOK))
			}
			b.WriteByte('\n')
		}
	}
	if errs := r.Errs(); len(errs) > 0 {
		b.WriteString("\nfailed trials:\n")
		for _, tr := range errs {
			fmt.Fprintf(&b, "  #%d seed=%d %s: %s\n", tr.Trial.Index, tr.Trial.Seed,
				GroupLabel(tr.Trial.Cell), tr.Err)
		}
	}
	return b.String()
}

// significance renders one metric's p-value cell against the baseline
// group: the per-seed paired test when the caller established the
// samples align seed for seed, Welch's otherwise.
func significance(base, cell []float64, paired bool) string {
	p, ok := campaign.TTest(base, cell, paired)
	if !ok {
		return fmt.Sprintf("%10s", "-")
	}
	return fmt.Sprintf("%10.4f", p)
}

// GroupLabel names a campaign cell's coordinates, skipping blank axes;
// option axes at their zero value (the scenario default) are likewise
// skipped.
func GroupLabel(g campaign.Cell) string {
	var parts []string
	if g.Scenario != "" {
		parts = append(parts, "scenario="+g.Scenario)
	}
	if g.Site != "" {
		parts = append(parts, "site="+g.Site)
	}
	if g.Mode != "" {
		parts = append(parts, "mode="+g.Mode)
	}
	if g.Days > 0 {
		parts = append(parts, fmt.Sprintf("days=%d", g.Days))
	}
	if g.CronPeriod > 0 {
		parts = append(parts, fmt.Sprintf("cron=%v", g.CronPeriod))
	}
	if g.AgentSet != "" {
		parts = append(parts, "agents="+g.AgentSet)
	}
	if g.NoBatchRescue {
		parts = append(parts, "no-batch-rescue")
	}
	if g.DisablePrivateNet {
		parts = append(parts, "no-private-net")
	}
	if g.Overrides != "" {
		parts = append(parts, "overrides="+g.Overrides)
	}
	if g.TierFaults != "" {
		parts = append(parts, "tierfaults="+g.TierFaults)
	}
	if g.Workload != "" {
		parts = append(parts, "workload="+g.Workload)
	}
	if g.TierLoad != "" {
		parts = append(parts, "tierload="+g.TierLoad)
	}
	if g.AgentSlots > 0 {
		parts = append(parts, fmt.Sprintf("agentslots=%d", g.AgentSlots))
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, " ")
}

// DowntimeHours returns one category's downtime in hours.
func (r Report) DowntimeHours(cat metrics.Category) float64 {
	for _, row := range r.Rows {
		if row.Category == cat {
			return row.Downtime.Hours()
		}
	}
	return 0
}
