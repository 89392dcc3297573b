package experiments

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	qoscluster "repro"
	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Campaign runs the multi-trial variant of a named scenario: cfg.Trials
// consecutive seeds (starting at cfg.Seed) of each matrix cell, fanned
// across cfg.Workers goroutines, folded into mean/min/max/95%-CI
// aggregates. Every trial builds its own site around its own
// simclock.Sim, so per-seed results are identical whatever the worker
// or shard count. With cfg.TracePath set, the campaign also records
// every trial's decision trace and writes the trace file there.
//
// Names: "before" and "after" sweep one operations mode, "fig2" (the
// default) sweeps both on the same seeds, "fig3"/"fig4"/"overhead" sweep
// the monitor-overhead rig, "latency" sweeps the §4 detection windows in
// both modes, "mttr" sweeps the manual repair-time distribution, and the
// "ablate-*" names sweep one option axis each (see AblateScenarios).
func Campaign(name string, cfg Config) (*campaign.Result, error) {
	m, err := CampaignMatrix(name, cfg, cfg.trials())
	if err != nil {
		return nil, err
	}
	// A fresh pool per campaign: skeletons never outlive the run, so a
	// topology or override re-registered between campaigns (both are
	// documented as replaceable) can never resurface through a stale
	// pooled site — the pools are keyed by Cell, which records only the
	// names.
	if cfg.TracePath == "" {
		return campaign.Run(name, m, cfg.Workers, newPooledRunFunc(cfg.Exec, nil))
	}
	res, buf, err := RunTracedCampaign(name, m, cfg.Exec)
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(cfg.TracePath, buf, 0o644); err != nil {
		return res, fmt.Errorf("writing trace %s: %w", cfg.TracePath, err)
	}
	return res, nil
}

// CampaignNames lists every scenario CampaignMatrix accepts.
var CampaignNames = []string{
	"before", "after", "fig2", "fig3", "fig4", "overhead",
	"latency", "mttr", "ablate-cron", "ablate-rescue", "ablate-net", "ablate-resident",
}

// CampaignMatrix translates a scenario name into the campaign axes it
// sweeps. The site axis is cfg.Sites resolved through the topology
// registry (JSON files are loaded and registered here, once, so every
// trial can select its topology by name). Ablation matrices obey
// cfg.AblationDays; the overhead-rig scenarios
// (fig3/fig4/overhead/ablate-resident) ignore the span and the site —
// they carry no Days or Sites coordinate, and a multi-site list is
// rejected for them. It also vets cfg.Exec, so a bad execution setting
// fails before any trial runs.
func CampaignMatrix(name string, cfg Config, trials int) (campaign.Matrix, error) {
	if cfg.Shards < 0 || cfg.Shards > qoscluster.MaxShards {
		return campaign.Matrix{}, fmt.Errorf("-shards %d outside [0, %d]", cfg.Shards, qoscluster.MaxShards)
	}
	if cfg.AgentSlots < 0 {
		return campaign.Matrix{}, fmt.Errorf("-agentslots %d is negative", cfg.AgentSlots)
	}
	if trials < 0 {
		return campaign.Matrix{}, fmt.Errorf("-trials %d is negative", trials)
	}
	if cfg.Days < 0 {
		return campaign.Matrix{}, fmt.Errorf("-days %d is negative", cfg.Days)
	}
	if cfg.TraceLevel < 0 || cfg.TraceLevel > trace.MaxLevel {
		return campaign.Matrix{}, fmt.Errorf("-tracelevel %d outside [0, %d]", cfg.TraceLevel, trace.MaxLevel)
	}
	m := campaign.Matrix{
		Seeds:      campaign.Seeds(cfg.Seed, trials),
		Days:       cfg.days(),
		AgentSlots: cfg.AgentSlots,
	}
	siteAxis := true
	switch name {
	case "", "fig2":
		m.Scenarios = []string{"year"}
		m.Modes = []string{"manual", "agents"}
	case "before":
		m.Scenarios = []string{"year"}
		m.Modes = []string{"manual"}
	case "after":
		m.Scenarios = []string{"year"}
		m.Modes = []string{"agents"}
	case "latency":
		// Both modes on the same seeds: the manual columns are the paper's
		// ~1h/~10h/~25h windows, the agent columns its 5-minute claim.
		m.Scenarios = []string{"latency"}
		m.Modes = []string{"manual", "agents"}
	case "mttr":
		// Manual only: the paper quotes repair times for the before year.
		m.Scenarios = []string{"mttr"}
		m.Modes = []string{"manual"}
	case "ablate-cron":
		m.Scenarios = []string{"ablate-cron"}
		m.Modes = []string{"agents"}
		m.CronPeriods = cfg.cronPeriods()
		m.Days = cfg.AblationDays()
		// Equal periods ("5m,300s" parses to two) would share a group key
		// and fold their seeds into one cell, as duplicate tier cells do.
		for i, p := range m.CronPeriods {
			if j := slices.Index(m.CronPeriods[:i], p); j >= 0 {
				return campaign.Matrix{}, fmt.Errorf("-cron periods %d and %d are both %v; duplicate cells would fold into one aggregation group",
					j+1, i+1, p)
			}
		}
	case "ablate-rescue":
		m.Scenarios = []string{"ablate-rescue"}
		m.Modes = []string{"agents"}
		m.NoBatchRescue = []bool{false, true}
		m.Days = cfg.AblationDays()
	case "ablate-net":
		m.Scenarios = []string{"ablate-net"}
		m.Modes = []string{"agents"}
		m.DisablePrivateNet = []bool{false, true}
		m.Days = netDays(cfg.AblationDays())
	case "ablate-resident":
		m.Scenarios = []string{"ablate-resident"}
		m.Days = 0 // the 4-hour overhead rig ignores the span
		siteAxis = false
	case "fig3", "fig4", "overhead":
		// "overhead" is one scenario reporting both the CPU and memory
		// series: the rig produces both in a single run, so splitting it
		// into fig3+fig4 cells would simulate everything twice.
		m.Scenarios = []string{name}
		m.Days = 0
		siteAxis = false
	default:
		return campaign.Matrix{}, fmt.Errorf("unknown campaign %q (want one of %v)", name, CampaignNames)
	}
	if siteAxis {
		sites, err := ResolveSites(cfg.siteArgs())
		if err != nil {
			return campaign.Matrix{}, err
		}
		m.Sites = sites
		// The per-tier intensity axes ride on any site scenario. Validate
		// each spec now — a typo'd multiplier or tier name must fail
		// before trials burn compute — but keep the raw strings as
		// coordinates. A named tier must exist in at least one selected
		// site's topology (trials scope the spec to each site's own
		// tiers); a name no site declares would silently weight nothing.
		// Duplicate cells are rejected: they would share a group key, so
		// Aggregate would silently fold their seeds into one cell and
		// halve every CI (a stray trailing ';' is the usual cause).
		known := knownTiers(sites)
		if err := validateTierScaleAxis("-tierfaults", cfg.TierFaultScales, ParseTierFaultScale, sites, known); err != nil {
			return campaign.Matrix{}, err
		}
		m.TierFaults = cfg.TierFaultScales
		if err := validateTierScaleAxis("-tierload", cfg.TierLoadScales, ParseTierLoadScale, sites, known); err != nil {
			return campaign.Matrix{}, err
		}
		m.TierLoads = cfg.TierLoadScales
		// The workload axis: resolve names/files through the spec
		// registry once, here, so every trial can look its spec up by
		// name wherever it runs (ResolveWorkloads also rejects duplicate
		// cells).
		wls, err := ResolveWorkloads(cfg.Workloads)
		if err != nil {
			return campaign.Matrix{}, err
		}
		m.Workloads = wls
	} else {
		if err := validateRigSites(name, cfg.Sites); err != nil {
			return campaign.Matrix{}, err
		}
		if len(cfg.TierFaultScales) > 0 {
			return campaign.Matrix{}, fmt.Errorf("scenario %q runs a fixed one-host rig and has no tiers to scale; drop -tierfaults", name)
		}
		if len(cfg.TierLoadScales) > 0 {
			return campaign.Matrix{}, fmt.Errorf("scenario %q runs a fixed one-host rig and has no tiers to scale; drop -tierload", name)
		}
		if len(cfg.Workloads) > 0 {
			return campaign.Matrix{}, fmt.Errorf("scenario %q runs a fixed one-host rig without the site workload generator; drop -workload", name)
		}
		if cfg.AgentSlots > 0 {
			return campaign.Matrix{}, fmt.Errorf("scenario %q runs a fixed one-host rig whose agents wake on their own tickers; drop -agentslots", name)
		}
		if cfg.TraceLevel > 0 || cfg.TracePath != "" {
			return campaign.Matrix{}, fmt.Errorf("scenario %q runs a fixed one-host rig with no healing pipeline to trace; drop -trace/-tracelevel", name)
		}
	}
	return m, nil
}

// validateTierScaleAxis vets one per-tier intensity axis (-tierfaults or
// -tierload) cell list: every cell parses, every named tier exists in at
// least one selected site, and no two cells are identical.
func validateTierScaleAxis(flag string, cells []string, parse func(string) (map[string]float64, error),
	sites []string, known map[string]bool) error {
	seen := map[string]int{}
	for i, spec := range cells {
		scale, err := parse(spec)
		if err != nil {
			return err
		}
		for _, tier := range sortedKeys(scale) {
			if !known[tier] {
				return fmt.Errorf(
					"%s cell %d (%q) names tier %q, which no selected site declares (sites %s have tiers: %s)",
					flag, i+1, spec, tier, strings.Join(sites, ", "), strings.Join(sortedKeys(known), ", "))
			}
		}
		if prev, dup := seen[spec]; dup {
			return fmt.Errorf("%s cells %d and %d are both %q; duplicate cells would fold into one aggregation group",
				flag, prev+1, i+1, spec)
		}
		seen[spec] = i
	}
	return nil
}

// validateRigSites vets -site arguments for the scenarios that build a
// fixed one-host rig: sweeping sites would replicate identical numbers
// under different labels, so a multi-site list is rejected, and a single
// explicit site must still resolve — a typo'd name should not pass
// silently just because the rig ignores it.
func validateRigSites(name string, sites []string) error {
	if len(sites) > 1 {
		return fmt.Errorf("scenario %q runs a fixed one-host rig and ignores -site; drop the multi-site list %v",
			name, sites)
	}
	if len(sites) == 1 {
		if _, err := ResolveSites(sites); err != nil {
			return err
		}
	}
	return nil
}

func (c Config) days() int {
	if c.Days <= 0 {
		return 365
	}
	return c.Days
}

// overrideMu guards the options-override registry. Registration is
// cheap and rare (init-time, typically); lookups happen on every trial.
var (
	overrideMu sync.RWMutex
	overrides  = map[string]func(*qoscluster.Options){}
)

// RegisterOverride installs a named qoscluster.Options mutator that
// matrix cells reference through the Overrides axis. The mutator runs
// after the trial's option axes are applied, so it can tune anything
// Options exposes (fault campaign, workload, operator timing, ...) that
// the first-class axes do not. Registering a name twice replaces the
// earlier mutator.
func RegisterOverride(name string, fn func(*qoscluster.Options)) {
	overrideMu.Lock()
	defer overrideMu.Unlock()
	if fn == nil {
		delete(overrides, name)
		return
	}
	overrides[name] = fn
}

func lookupOverride(name string) func(*qoscluster.Options) {
	overrideMu.RLock()
	defer overrideMu.RUnlock()
	return overrides[name]
}

// ParseTierFaultScale parses a per-tier fault-intensity spec — a comma
// list of tier=multiplier entries like "web=2,db=0.5" — into the
// qoscluster.Options.TierFaultScale map. An empty spec returns nil (the
// topology's own per-tier weights unscaled). This checks syntax and
// multiplier sanity only; CampaignMatrix additionally rejects tier names
// that no selected site's topology declares, and each trial scopes the
// map to its own site's tiers (scopeTierScale).
func ParseTierFaultScale(spec string) (map[string]float64, error) {
	return parseTierScale(spec, "tier-fault")
}

// ParseTierLoadScale parses a per-tier workload-intensity spec — the same
// "web=2,db=0.5" grammar as ParseTierFaultScale — into the
// qoscluster.Options.TierLoadScale map. An empty spec returns nil (the
// topology's own per-tier workload shares unscaled).
func ParseTierLoadScale(spec string) (map[string]float64, error) {
	return parseTierScale(spec, "tier-load")
}

// parseTierScale is the shared tier=multiplier comma-list parser behind
// both per-tier intensity axes; kind names the axis in error messages.
func parseTierScale(spec, kind string) (map[string]float64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tier, val, ok := strings.Cut(part, "=")
		tier = strings.TrimSpace(tier)
		if !ok || tier == "" {
			return nil, fmt.Errorf("%s entry %q: want tier=multiplier", kind, part)
		}
		scale, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("%s entry %q: %w", kind, part, err)
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			return nil, fmt.Errorf("%s entry %q: want a finite multiplier >= 0", kind, part)
		}
		if _, dup := out[tier]; dup {
			return nil, fmt.Errorf("%s spec names tier %q twice", kind, tier)
		}
		out[tier] = scale
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s spec %q names no tiers", kind, spec)
	}
	return out, nil
}

// knownTiers unions the tier names declared by the given registered
// sites (ResolveSites has already registered every name it returns).
func knownTiers(sites []string) map[string]bool {
	known := map[string]bool{}
	for _, name := range sites {
		topo, ok := qoscluster.ResolveTopology(name)
		if !ok {
			continue
		}
		for _, tier := range topo.Tiers {
			known[tier.Name] = true
		}
	}
	return known
}

// sortedKeys returns a map's keys sorted, for deterministic messages.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// trialOptions builds the qoscluster.Options a trial's coordinates call
// for: mode and agent set from their string axes, the option axes
// verbatim, then any registered override applied on top. The workload
// axis is not an option: buildTrialSite names the spec on the topology.
func trialOptions(t campaign.Trial) (qoscluster.Options, error) {
	o := qoscluster.Options{
		CronPeriod:        t.CronPeriod,
		NoBatchRescue:     t.NoBatchRescue,
		DisablePrivateNet: t.DisablePrivateNet,
		AgentSlots:        t.AgentSlots,
	}
	if t.TierFaults != "" {
		scale, err := ParseTierFaultScale(t.TierFaults)
		if err != nil {
			return o, err
		}
		o.TierFaultScale = scale
	}
	if t.TierLoad != "" {
		scale, err := ParseTierLoadScale(t.TierLoad)
		if err != nil {
			return o, err
		}
		o.TierLoadScale = scale
	}
	switch t.Mode {
	case "manual", "":
		o.Mode = qoscluster.ModeManual
	case "agents":
		o.Mode = qoscluster.ModeAgents
	default:
		return o, fmt.Errorf("unknown mode %q", t.Mode)
	}
	switch t.AgentSet {
	case "", "lean":
		o.AgentSet = qoscluster.AgentsLean
	case "full":
		o.AgentSet = qoscluster.AgentsFull
	default:
		return o, fmt.Errorf("unknown agent set %q (want lean or full)", t.AgentSet)
	}
	if t.Overrides != "" {
		fn := lookupOverride(t.Overrides)
		if fn == nil {
			return o, fmt.Errorf("unknown options override %q (RegisterOverride it first)", t.Overrides)
		}
		fn(&o)
	}
	return o, nil
}

// siteScenario reports whether the scenario's trials build a full named
// site — the trials worth running on a reused skeleton. The overhead-rig
// scenarios build their own fixed one-host rigs instead.
func siteScenario(name string) bool {
	switch name {
	case "year", "latency", "mttr", "ablate-cron", "ablate-rescue", "ablate-net":
		return true
	}
	return false
}

// trialSiteOptions is trialOptions plus the per-site scoping of the
// tier-fault-scale spec: a multi-site sweep may name a tier only some
// sites declare (CampaignMatrix has already rejected names *no* site
// declares), so each trial keeps just the entries its own topology has —
// NewSite would otherwise reject the spec wholesale.
func trialSiteOptions(t campaign.Trial) (qoscluster.Options, error) {
	o, err := trialOptions(t)
	if err != nil {
		return o, err
	}
	o.TierFaultScale = scopeTierScale(o.TierFaultScale, t.Site)
	o.TierLoadScale = scopeTierScale(o.TierLoadScale, t.Site)
	return o, nil
}

// scopeTierScale drops scale entries for tiers the named site's topology
// does not declare; an empty result collapses to nil so the site keeps
// the exact no-override fast path. An unresolvable site name passes the
// map through — buildNamedSite reports the unknown site with more
// context than a scoping failure could.
func scopeTierScale(scale map[string]float64, site string) map[string]float64 {
	if len(scale) == 0 {
		return scale
	}
	if site == "" {
		site = defaultSite
	}
	topo, ok := qoscluster.ResolveTopology(site)
	if !ok {
		return scale
	}
	var out map[string]float64
	for _, tier := range topo.Tiers {
		if v, has := scale[tier.Name]; has {
			if out == nil {
				out = map[string]float64{}
			}
			out[tier.Name] = v
		}
	}
	return out
}

// buildTrialSite assembles the site one trial's coordinates call for,
// with extra options (execution settings, a counterfactual) applied after
// the trial's own.
func buildTrialSite(t campaign.Trial, extra ...qoscluster.Option) (*qoscluster.Site, error) {
	opts, err := trialSiteOptions(t)
	if err != nil {
		return nil, err
	}
	return buildNamedSite(t.Site, t.Workload, t.Seed, append([]qoscluster.Option{qoscluster.WithOptions(opts)}, extra...)...)
}

// runSiteTrial advances a (fresh or reseeded) site over the trial's span
// and extracts the scenario's metrics.
func runSiteTrial(site *qoscluster.Site, t campaign.Trial) (map[string]float64, error) {
	span := Config{Seed: t.Seed, Days: t.Days}.span()
	if err := site.Run(span); err != nil {
		return nil, err
	}
	switch t.Scenario {
	case "year":
		return yearMetrics(site.Report(), span), nil
	case "latency":
		return latencyMetrics(site), nil
	case "mttr":
		return mttrMetrics(site), nil
	case "ablate-cron":
		return ablateCronMetrics(site.Report()), nil
	case "ablate-rescue":
		return ablateRescueMetrics(site.Report()), nil
	case "ablate-net":
		return ablateNetMetrics(site), nil
	default:
		return nil, fmt.Errorf("scenario %q is not a site scenario", t.Scenario)
	}
}

// RunTrial executes one campaign trial on a freshly built site. It is safe
// for concurrent use: all state lives in the site built here. The trial's
// Site coordinate names a registered topology (CampaignMatrix registers
// JSON-file sites before any trial runs).
//
// Campaign runs use the pooled variant (NewPooledRunFunc) by default;
// RunTrial remains the build-per-trial path the equivalence tests compare
// it against.
func RunTrial(t campaign.Trial) (map[string]float64, error) {
	switch {
	case siteScenario(t.Scenario):
		site, err := buildTrialSite(t)
		if err != nil {
			return nil, err
		}
		return runSiteTrial(site, t)
	case t.Scenario == "ablate-resident":
		return residentMetrics(t.Seed), nil
	case t.Scenario == "fig3" || t.Scenario == "fig4" || t.Scenario == "overhead":
		return overheadMetrics(t.Scenario, t.Seed), nil
	default:
		return nil, fmt.Errorf("unknown campaign scenario %q", t.Scenario)
	}
}

// ReferenceRunTrial is RunTrial on the single-goroutine engine with the
// reference probe path (one repeating event per probed service instead of
// batched walks). The equivalence tests assert campaign JSON from this
// path is byte-identical to the pooled, batched, sharded paths.
func ReferenceRunTrial(t campaign.Trial) (map[string]float64, error) {
	if !siteScenario(t.Scenario) {
		return RunTrial(t)
	}
	site, err := buildTrialSite(t, qoscluster.WithReferenceProbes())
	if err != nil {
		return nil, err
	}
	return runSiteTrial(site, t)
}

// NewPooledRunFunc returns a campaign.RunFunc that reuses one site
// skeleton per matrix cell per worker (Site.Reset between seeds) instead
// of rebuilding topology, services, networks and agents for every trial.
// Results are byte-identical to RunTrial — gated by the equivalence tests.
// Its sites are serial and untraced: Campaign and RunTracedCampaign build
// their run functions from an Exec instead. Each call returns an
// independently pooled runner; use one per campaign, since pooled
// skeletons are keyed by site/override *names* and must not survive a
// re-registration of either.
func NewPooledRunFunc() campaign.RunFunc {
	return newPooledRunFunc(Exec{}, nil)
}

// siteBuilt, when non-nil, sees every site a pooled run function builds:
// the test seam that checks execution settings reach the sites.
var siteBuilt func(*qoscluster.Site)

// newPooledRunFunc is NewPooledRunFunc with its sites built at exec's
// shard count. With a trace collector its sites also record at exec's
// trace level, and col harvests each successful site trial before the
// skeleton is reused; without one they build no recorder.
func newPooledRunFunc(exec Exec, col *traceCollector) campaign.RunFunc {
	level, run := 0, runSiteTrial
	if col != nil {
		level = exec.traceLevel()
		run = func(s *qoscluster.Site, t campaign.Trial) (map[string]float64, error) {
			vals, err := runSiteTrial(s, t)
			if err == nil {
				col.harvest(s, t)
			}
			return vals, err
		}
	}
	pooled := campaign.ReuseRunner[*qoscluster.Site]{
		Build: func(t campaign.Trial) (*qoscluster.Site, error) {
			s, err := buildTrialSite(t, qoscluster.WithShards(exec.Shards), qoscluster.WithTrace(level))
			if err == nil && siteBuilt != nil {
				siteBuilt(s)
			}
			return s, err
		},
		Reset: func(s *qoscluster.Site, t campaign.Trial) error { return s.Reset(t.Seed) },
		Run:   run,
	}.RunFunc()
	return func(t campaign.Trial) (map[string]float64, error) {
		if !siteScenario(t.Scenario) {
			return RunTrial(t)
		}
		return pooled(t)
	}
}

// yearMetrics flattens a year-run report into campaign metrics: the
// Figure-2 category downtimes, the §4 detection/repair latencies, and the
// batch/agent counters.
func yearMetrics(r qoscluster.Report, span simclock.Time) map[string]float64 {
	vals := map[string]float64{
		"downtime_h/total":   r.Total.Hours(),
		"availability_pct":   100 * metrics.Availability(r.Total, span),
		"detect_mean_s":      r.MeanDetect.Duration().Seconds(),
		"detect_p95_s":       r.P95Detect.Duration().Seconds(),
		"detect_day_s":       r.DetectDay.Duration().Seconds(),
		"detect_overnight_s": r.DetectNight.Duration().Seconds(),
		"detect_weekend_s":   r.DetectWkend.Duration().Seconds(),
		"mttr_mean_s":        r.MeanMTTR.Duration().Seconds(),
		"jobs_done":          float64(r.JobsDone),
		"jobs_failed":        float64(r.JobsFailed),
		"jobs_resubmitted":   float64(r.Resubmitted),
		"agent_runs":         float64(r.AgentRuns),
		"agent_heals":        float64(r.AgentHeals),
		"escalations":        float64(r.Escalations),
		"open_faults":        float64(r.OpenFaults),
	}
	for _, row := range r.Rows {
		vals["downtime_h/"+string(row.Category)] = row.Downtime.Hours()
		vals["incidents/"+string(row.Category)] = float64(row.Incidents)
	}
	// Per-tier breakdown rows: present exactly when the site is tiered
	// (Report populates Tiers only then), so untiered topologies keep
	// their pre-domain campaign JSON byte-identical.
	for _, row := range r.Tiers {
		vals["downtime_h_tier/"+row.Tier] = row.Downtime.Hours()
		vals["incidents_tier/"+row.Tier] = float64(row.Incidents)
	}
	return vals
}

// overheadMetrics reruns the Figure-3/4 rig for one seed and reports the
// mean monitor footprints plus their BMC:agent ratio.
func overheadMetrics(scenario string, seed uint64) map[string]float64 {
	bmcCPU, agCPU, bmcMem, agMem := sampleOverhead(seed)
	vals := map[string]float64{}
	if scenario != "fig4" {
		vals["bmc_cpu_pct"] = bmcCPU.Mean()
		vals["agent_cpu_pct"] = agCPU.Mean()
		if agCPU.Mean() > 0 {
			vals["cpu_ratio_x"] = bmcCPU.Mean() / agCPU.Mean()
		}
	}
	if scenario != "fig3" {
		vals["bmc_mem_mb"] = bmcMem.Mean()
		vals["agent_mem_mb"] = agMem.Mean()
		if agMem.Mean() > 0 {
			vals["mem_ratio_x"] = bmcMem.Mean() / agMem.Mean()
		}
	}
	return vals
}
