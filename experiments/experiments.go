// Package experiments regenerates every table and figure in the paper's
// evaluation (§4): the Figure-2 downtime breakdown before and after the
// intelliagents, the Figure-3/4 monitor overhead comparison, the detection
// latency and manual-repair-time observations quoted in the text, and the
// ablations DESIGN.md calls out.
package experiments

import (
	"fmt"
	"reflect"
	"strings"

	qoscluster "repro"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workload"
)

// defaultSite is the site topology a run uses when it names none.
const defaultSite = "small"

// Exec is how a run executes, as opposed to what it simulates: no field
// changes a reproduced number, so none of them enters the campaign
// matrix or its JSON.
type Exec struct {
	// Workers bounds the campaign worker pool (0 = NumCPU).
	Workers int
	// Shards is the intra-trial parallelism degree handed to every site
	// (see qoscluster.WithShards); 0 or 1 keep the single-goroutine
	// engine. Results are byte-identical at any value.
	Shards int
	// TracePath, when set, records every trial's decision trace and writes
	// the campaign's trace file (JSONL) there. Campaign results are
	// byte-identical with or without it.
	TracePath string
	// TraceLevel sets the recorder level of a traced campaign: 1 records
	// decision events, 2 adds diagnosis evidence lines (see
	// qoscluster.WithTrace). 0 means 1. An untraced campaign builds no
	// recorder, whatever the level.
	TraceLevel int
}

// traceLevel is the recorder level a traced run uses.
func (e Exec) traceLevel() int {
	if e.TraceLevel == 0 {
		return trace.LevelDecisions
	}
	return e.TraceLevel
}

// Config parameterises a run.
type Config struct {
	Seed uint64
	Days int
	// Sites names the site topologies to run or sweep: registered
	// topology names (paper, small, webfarm, computefarm, or anything
	// qoscluster.RegisterTopology added) and/or paths to topology JSON
	// files. Empty means {defaultSite}. Campaigns sweep the whole list as
	// a matrix axis; the single-seed narrative scenarios run each site in
	// turn.
	Sites []string
	// Trials is the seeds-per-cell count of every campaign; 0 means 8.
	Trials int
	// CronPeriods overrides the ablate-cron sweep axis (default
	// 1m, 5m, 15m, 60m).
	CronPeriods []simclock.Time
	// TierFaultScales sweeps per-tier fault intensity as a matrix axis on
	// the site scenarios: each entry is a "tier=mult[,tier=mult]" spec
	// (or "" for the unscaled default) and becomes one aggregation cell.
	TierFaultScales []string
	// Workloads sweeps statistical workload specs as a matrix axis on
	// the site scenarios: registered spec names (paper, flashcrowd,
	// failover, or anything workload.RegisterSpec added) and/or paths to
	// workload-spec JSON files; "" selects the site's own workload. Each
	// entry becomes one aggregation cell.
	Workloads []string
	// TierLoadScales sweeps per-tier load intensity as a matrix axis —
	// the workload twin of TierFaultScales, same "tier=mult" cells.
	TierLoadScales []string
	// AgentSlots quantizes agent cron dispatch onto this many slots per
	// period, each slot's agents running from one wheel bucket (see
	// qoscluster.WithAgentSlots). A model knob: slotted trajectories
	// differ from unslotted ones, and campaigns record the value in their
	// JSON. 0 keeps per-agent phases.
	AgentSlots int
	// Exec is how the run executes: workers, shards and tracing.
	Exec
}

func (c Config) siteArgs() []string {
	if len(c.Sites) == 0 {
		return []string{defaultSite}
	}
	return c.Sites
}

// trials is the seeds-per-cell count campaigns run.
func (c Config) trials() int {
	if c.Trials <= 0 {
		return 8
	}
	return c.Trials
}

// ResolveSites canonicalises site arguments into registered topology
// names: a name that is already registered passes through; anything else
// is treated as a topology JSON file, which is loaded, validated and
// registered under its declared name, so campaign trials can look it up
// wherever they run. A file whose declared name collides with a
// different already-registered topology is rejected (re-loading an
// identical declaration is fine), as is the same resolved name appearing
// twice — either would silently fold two distinct site axes into one.
func ResolveSites(args []string) ([]string, error) {
	out := make([]string, 0, len(args))
	used := map[string]string{} // resolved name -> the arg that claimed it
	for _, arg := range args {
		name := arg
		if _, ok := qoscluster.ResolveTopology(arg); !ok {
			topo, err := qoscluster.LoadTopologyFile(arg)
			if err != nil {
				return nil, fmt.Errorf("site %q: not a registered topology (%s) and not loadable as a topology file: %w",
					arg, strings.Join(qoscluster.TopologyNames(), ", "), err)
			}
			if existing, ok := qoscluster.TopologyByName(topo.Name); ok && !reflect.DeepEqual(existing, topo) {
				return nil, fmt.Errorf("site %q: declares name %q, which is already registered as a different topology",
					arg, topo.Name)
			}
			if err := qoscluster.RegisterTopology(topo); err != nil {
				return nil, fmt.Errorf("site %q: %w", arg, err)
			}
			name = topo.Name
		}
		if prev, dup := used[name]; dup {
			return nil, fmt.Errorf("site %q resolves to %q, already named by %q", arg, name, prev)
		}
		used[name] = arg
		out = append(out, name)
	}
	return out, nil
}

// ResolveWorkloads canonicalises workload-axis arguments into registered
// spec names, with the same rules as ResolveSites: "" (the site's own
// workload) passes through, a registered spec name passes through, and
// anything else is treated as a workload-spec JSON file, which is
// loaded, validated and registered under its declared name so campaign
// trials can look it up wherever they run. A file whose declared name
// collides with a different already-registered spec is rejected
// (re-loading an identical declaration is fine), as is the same
// resolved name appearing twice.
func ResolveWorkloads(args []string) ([]string, error) {
	out := make([]string, 0, len(args))
	used := map[string]string{} // resolved name -> the arg that claimed it
	for _, arg := range args {
		name := arg
		if _, ok := workload.SpecByName(arg); !ok && arg != "" {
			sp, err := workload.LoadSpecFile(arg)
			if err != nil {
				return nil, fmt.Errorf("workload %q: not a registered spec (%s) and not loadable as a spec file: %w",
					arg, strings.Join(workload.SpecNames(), ", "), err)
			}
			if existing, ok := workload.SpecByName(sp.Name); ok && !reflect.DeepEqual(existing, sp) {
				return nil, fmt.Errorf("workload %q: declares name %q, which is already registered as a different spec",
					arg, sp.Name)
			}
			if err := workload.RegisterSpec(sp); err != nil {
				return nil, fmt.Errorf("workload %q: %w", arg, err)
			}
			name = sp.Name
		}
		if prev, dup := used[name]; dup {
			return nil, fmt.Errorf("workload %q resolves to %q, already named by %q", arg, name, prev)
		}
		used[name] = arg
		out = append(out, name)
	}
	return out, nil
}

// buildNamedSite assembles one registered site topology with the given
// options layered on. A non-empty spec names the statistical workload
// spec on the topology value (Topology.Workload), replacing the one the
// registered topology names. The seed parameter is authoritative: it is
// applied after the caller's options, so a WithOptions bundle cannot
// silently zero it.
func buildNamedSite(name, spec string, seed uint64, opts ...qoscluster.Option) (*qoscluster.Site, error) {
	if name == "" {
		name = defaultSite
	}
	topo, ok := qoscluster.ResolveTopology(name)
	if !ok {
		return nil, fmt.Errorf("unknown site topology %q (registered: %s)",
			name, strings.Join(qoscluster.TopologyNames(), ", "))
	}
	if spec != "" {
		topo.Workload = spec
	}
	return qoscluster.NewSite(topo, append(append([]qoscluster.Option{}, opts...), qoscluster.WithSeed(seed))...)
}

func (c Config) span() simclock.Time {
	if c.Days <= 0 {
		return simclock.Year
	}
	return simclock.Time(c.Days) * simclock.Day
}

// Ablation span rule: sweeps default to DefaultAblationDays (long enough
// for every fault category to appear, far cheaper than a full year) and
// never exceed MaxAblationDays.
const (
	DefaultAblationDays = 90
	MaxAblationDays     = 120
)

// AblationDays applies the explicit ablation span rule, shared by the
// campaign and single-run paths: Days <= 0 selects DefaultAblationDays,
// an explicit Days up to MaxAblationDays is honoured as given, and a
// longer request is capped at MaxAblationDays — not silently rewritten
// to the default.
func (c Config) AblationDays() int {
	switch {
	case c.Days <= 0:
		return DefaultAblationDays
	case c.Days > MaxAblationDays:
		return MaxAblationDays
	default:
		return c.Days
	}
}

// Run executes a named scenario and returns its printed report. The
// stochastic observation scenarios — latency, mttr and the ablate-*
// sweeps — run as multi-seed campaigns (cfg.Trials seeds per cell) and
// report mean ± 95%-CI aggregates; there is no single-seed path for
// them. "ablate" runs all four ablation sweeps back to back.
func Run(name string, cfg Config) (string, error) {
	switch name {
	case "before":
		return YearBefore(cfg)
	case "after":
		return YearAfter(cfg)
	case "fig2":
		return Fig2(cfg)
	case "fig3":
		return Fig3(cfg)
	case "fig4":
		return Fig4(cfg)
	case "latency", "mttr", "ablate-cron", "ablate-rescue", "ablate-net", "ablate-resident":
		return campaignText(name, cfg)
	case "ablate":
		// Validate every sweep's matrix up front: a flag error knowable
		// now (e.g. a multi-site list, rejected by ablate-resident) must
		// not surface only after the earlier sweeps burned their compute.
		for _, n := range AblateScenarios {
			if _, err := CampaignMatrix(n, cfg, cfg.trials()); err != nil {
				return "", err
			}
		}
		var b strings.Builder
		for i, n := range AblateScenarios {
			out, err := campaignText(n, cfg)
			if i > 0 && out != "" {
				b.WriteByte('\n')
			}
			b.WriteString(out)
			if err != nil {
				// Completed sweeps (and the failed-trials detail campaignText
				// renders) stay in the output alongside the error.
				return b.String(), err
			}
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("unknown scenario %q", name)
	}
}

// campaignText runs one scenario as a campaign and renders its aggregate
// tables, with the paper's reference quotes appended where the scenario
// has them.
func campaignText(name string, cfg Config) (string, error) {
	res, err := Campaign(name, cfg)
	if err != nil {
		return "", err
	}
	out := qoscluster.FormatCampaign(res) + paperNote(name)
	if errs := res.Errs(); len(errs) > 0 {
		return out, fmt.Errorf("campaign %s: %d of %d trials failed", name, len(errs), len(res.Trials))
	}
	return out, nil
}

// PaperFig2Before is the paper's before-year downtime breakdown in hours.
var PaperFig2Before = map[metrics.Category]float64{
	metrics.CatMidCrash:       345,
	metrics.CatHuman:          60,
	metrics.CatPerformance:    50,
	metrics.CatFrontEnd:       40,
	metrics.CatLSF:            30,
	metrics.CatFirewallNet:    10,
	metrics.CatHardware:       10,
	metrics.CatCompletelyDown: 5,
}

// PaperFig2After is the paper's after-year breakdown. (The paper's text
// says 31 hours total but its own category list sums to 39; we compare
// against the per-category list.)
var PaperFig2After = map[metrics.Category]float64{
	metrics.CatMidCrash:       8,
	metrics.CatHuman:          2,
	metrics.CatPerformance:    9,
	metrics.CatFrontEnd:       3,
	metrics.CatLSF:            1,
	metrics.CatFirewallNet:    8,
	metrics.CatHardware:       6,
	metrics.CatCompletelyDown: 2,
}

// yearReports runs one operations mode over every configured site and
// concatenates the reports (with a site header when more than one site is
// configured).
func yearReports(cfg Config, mode qoscluster.Mode) (string, error) {
	sites, err := ResolveSites(cfg.siteArgs())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, name := range sites {
		site, err := buildNamedSite(name, "", cfg.Seed, qoscluster.WithMode(mode), qoscluster.WithShards(cfg.Shards),
			qoscluster.WithAgentSlots(cfg.AgentSlots))
		if err != nil {
			return b.String(), err
		}
		if err := site.Run(cfg.span()); err != nil {
			return b.String(), fmt.Errorf("site %s: %w", name, err)
		}
		if len(sites) > 1 {
			if i > 0 {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "--- site %s ---\n", name)
		}
		b.WriteString(site.Report().Format())
	}
	return b.String(), nil
}

// YearBefore runs the manual-operations year and prints its report.
func YearBefore(cfg Config) (string, error) {
	return yearReports(cfg, qoscluster.ModeManual)
}

// YearAfter runs the intelliagent year and prints its report.
func YearAfter(cfg Config) (string, error) {
	return yearReports(cfg, qoscluster.ModeAgents)
}

// Fig2 runs both years on the same fault campaign and prints the
// reproduction of Figure 2 with the paper's numbers alongside, once per
// configured site.
func Fig2(cfg Config) (string, error) {
	sites, err := ResolveSites(cfg.siteArgs())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, name := range sites {
		if i > 0 {
			b.WriteByte('\n')
		}
		if err := fig2Site(&b, cfg, name); err != nil {
			return b.String(), err
		}
	}
	return b.String(), nil
}

func fig2Site(b *strings.Builder, cfg Config, siteName string) error {
	before, err := buildNamedSite(siteName, "", cfg.Seed, qoscluster.WithMode(qoscluster.ModeManual), qoscluster.WithShards(cfg.Shards),
		qoscluster.WithAgentSlots(cfg.AgentSlots))
	if err != nil {
		return err
	}
	if err := before.Run(cfg.span()); err != nil {
		return fmt.Errorf("site %s: %w", siteName, err)
	}
	rb := before.Report()

	after, err := buildNamedSite(siteName, "", cfg.Seed, qoscluster.WithMode(qoscluster.ModeAgents), qoscluster.WithShards(cfg.Shards),
		qoscluster.WithAgentSlots(cfg.AgentSlots))
	if err != nil {
		return err
	}
	if err := after.Run(cfg.span()); err != nil {
		return fmt.Errorf("site %s: %w", siteName, err)
	}
	ra := after.Report()

	scale := float64(cfg.span()) / float64(simclock.Year)
	fmt.Fprintf(b, "Figure 2 — downtime hours by error category (site %s, %.0f days, seed %d)\n",
		siteName, cfg.span().Hours()/24, cfg.Seed)
	fmt.Fprintf(b, "%-16s %12s %12s %12s %12s\n", "category", "before", "paper-before", "after", "paper-after")
	var tb, ta float64
	for _, cat := range metrics.Categories {
		hb := rb.DowntimeHours(cat)
		ha := ra.DowntimeHours(cat)
		tb += hb
		ta += ha
		fmt.Fprintf(b, "%-16s %12.1f %12.1f %12.1f %12.1f\n",
			cat, hb, PaperFig2Before[cat]*scale, ha, PaperFig2After[cat]*scale)
	}
	fmt.Fprintf(b, "%-16s %12.1f %12.1f %12.1f %12.1f\n", "TOTAL", tb, 550*scale, ta, 39*scale)
	if ta > 0 {
		fmt.Fprintf(b, "improvement factor: %.1fx (paper: %.1fx)\n", tb/ta, 550.0/39)
	}
	fmt.Fprintf(b, "\nbatch: before done=%d failed=%d | after done=%d failed=%d resubmitted=%d\n",
		rb.JobsDone, rb.JobsFailed, ra.JobsDone, ra.JobsFailed, ra.Resubmitted)
	return nil
}
