package qoscluster

// One benchmark per table/figure in the paper's evaluation, plus the
// engine benchmarks the CI perf gate tracks. Each iteration runs a fixed
// slice of the corresponding experiment and reports the headline quantity
// as a custom metric, so `go test -bench=. -benchmem` both exercises and
// summarises every reproduced result. The full-length tables themselves
// are regenerated by `go run ./cmd/qossim <scenario>` (README.md,
// "Scenario runs").

import (
	"os"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// benchDays is the per-iteration slice for year-scale scenarios: long
// enough for every fault category to appear, short enough to iterate.
const benchDays = 45 * simclock.Day

// mustSite builds a topology site and fails the benchmark on error.
func mustSite(tb testing.TB, topo Topology, opts ...Option) *Site {
	tb.Helper()
	site, err := NewSite(topo, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return site
}

// mustRun advances a site and fails the test or benchmark on a
// deployment error: a silently skipped simulation would otherwise
// produce near-zero reports that read as vacuous passes (or, in the
// perf gate, as improvements).
func mustRun(tb testing.TB, site *Site, until simclock.Time) {
	tb.Helper()
	if err := site.Run(until); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkFig2Before reproduces Figure 2's left bars: the manual-
// operations year. Reported metric: downtime hours per simulated year.
func BenchmarkFig2Before(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		site := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeManual))
		mustRun(b, site, benchDays)
		hours = site.Report().Total.Hours() * float64(simclock.Year) / float64(benchDays)
	}
	b.ReportMetric(hours, "downtime-h/yr")
}

// BenchmarkFig2After reproduces Figure 2's right bars: the intelliagent
// year on the identical fault campaign.
func BenchmarkFig2After(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		site := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeAgents))
		mustRun(b, site, benchDays)
		hours = site.Report().Total.Hours() * float64(simclock.Year) / float64(benchDays)
	}
	b.ReportMetric(hours, "downtime-h/yr")
}

// BenchmarkFig2Improvement runs both years back to back and reports the
// improvement factor (paper: 550/31 ≈ 18x).
func BenchmarkFig2Improvement(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		before := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeManual))
		mustRun(b, before, benchDays)
		after := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeAgents))
		mustRun(b, after, benchDays)
		if t := after.Report().Total; t > 0 {
			factor = float64(before.Report().Total) / float64(t)
		}
	}
	b.ReportMetric(factor, "improvement-x")
}

// BenchmarkDetectionLatency reproduces the §4 detection observation:
// intelliagents detect within the 5-minute cron period (vs 1 h / 10 h /
// 25 h manually). Reported metric: mean detection latency in seconds.
func BenchmarkDetectionLatency(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		site := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeAgents))
		mustRun(b, site, 20*simclock.Day)
		mean = site.Report().MeanDetect.Duration().Seconds()
	}
	b.ReportMetric(mean, "detect-s")
}

// BenchmarkIncidentMTTR reproduces the §4 manual repair quotes (restarts
// up to 2 h, escalated path ~4 h). Reported metric: mean manual MTTR in
// hours.
func BenchmarkIncidentMTTR(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		site := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeManual))
		mustRun(b, site, 90*simclock.Day)
		hours = metrics.Mean(site.Ledger.MTTRs(nil)).Hours()
	}
	b.ReportMetric(hours, "mttr-h")
}

// BenchmarkAblationCron measures the residual-downtime cost of a 12x
// slower agent cron (the ablate-cron ablation in experiments/ablate.go).
func BenchmarkAblationCron(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		fast := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeAgents),
			func(o *Options) { o.CronPeriod = 5 * simclock.Minute })
		mustRun(b, fast, 15*simclock.Day)
		slow := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeAgents),
			func(o *Options) { o.CronPeriod = 60 * simclock.Minute })
		mustRun(b, slow, 15*simclock.Day)
		if t := fast.Report().Total; t > 0 {
			penalty = float64(slow.Report().Total) / float64(t)
		}
	}
	b.ReportMetric(penalty, "60m/5m-x")
}

// BenchmarkAblationBatchRescue measures how many failed jobs the DGSPL
// resubmission path saves (the ablate-rescue ablation in
// experiments/ablate.go).
func BenchmarkAblationBatchRescue(b *testing.B) {
	midOnly := []faultinject.Spec{{
		Category: metrics.CatMidCrash, MeanInterarrival: 2 * simclock.Day,
		Window: faultinject.Overnight,
	}}
	var saved float64
	for i := 0; i < b.N; i++ {
		with := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeAgents), func(o *Options) { o.Faults = midOnly })
		mustRun(b, with, 10*simclock.Day)
		without := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeAgents),
			func(o *Options) { o.Faults = midOnly }, func(o *Options) { o.NoBatchRescue = true })
		mustRun(b, without, 10*simclock.Day)
		saved = float64(without.Report().JobsFailed - with.Report().JobsFailed)
	}
	b.ReportMetric(saved, "jobs-saved")
}

// BenchmarkAblationPrivateNet measures the agent traffic the private
// network keeps off the public LAN (the ablate-net ablation in
// experiments/ablate.go).
func BenchmarkAblationPrivateNet(b *testing.B) {
	var publicMB float64
	for i := 0; i < b.N; i++ {
		site := mustSite(b, SmallTopology(), WithSeed(7), WithMode(ModeAgents),
			func(o *Options) { o.DisablePrivateNet = true }, WithNoFaults())
		mustRun(b, site, 5*simclock.Day)
		publicMB = float64(site.Public.Stats().Bytes) / (1 << 20)
	}
	b.ReportMetric(publicMB, "public-MB/5d")
}

// BenchmarkSiteBuild measures scenario assembly (the paper-size site).
func BenchmarkSiteBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustSite(b, PaperTopology(), WithSeed(1), WithMode(ModeManual))
	}
}

// BenchmarkAgentDay measures one simulated agent-mode day on the scaled
// site — the reproduction's hot loop and the CI perf gate's ns/op and
// allocs/op data point.
func BenchmarkAgentDay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		site := mustSite(b, SmallTopology(), WithSeed(1), WithMode(ModeAgents), WithNoFaults())
		mustRun(b, site, simclock.Day)
	}
}

// BenchmarkAgentDayTraced is BenchmarkAgentDay with full decision
// tracing on. Compared against BenchmarkAgentDay it prices the recorder
// (slice appends at decision points); the untraced benchmark is the one
// the perf gate holds flat, so recorder overhead can never hide a
// regression on the tracing-off path.
func BenchmarkAgentDayTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		site := mustSite(b, SmallTopology(), WithSeed(1), WithMode(ModeAgents), WithNoFaults(),
			WithTrace(2))
		mustRun(b, site, simclock.Day)
	}
}

// BenchmarkPaperAgentDay measures one simulated agent-mode day on the
// full paper-size site (215 hosts, ~900 agents) — the configuration the
// ROADMAP's 100-seed year sweeps need to be tractable on.
func BenchmarkPaperAgentDay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		site := mustSite(b, PaperTopology(), WithSeed(1), WithMode(ModeAgents), WithNoFaults())
		mustRun(b, site, simclock.Day)
	}
}

// BenchmarkAgentDaySlots is the paper-site agent day with cron dispatch
// quantized onto 8 slots (WithAgentSlots): each slot's agents share one
// wheel bucket and run one after another, one heap event per slot instead
// of one ticker per agent. Built once and Reset per iteration, the
// pooled-campaign usage pattern.
func BenchmarkAgentDaySlots(b *testing.B) {
	site := mustSite(b, PaperTopology(), WithSeed(1), WithMode(ModeAgents), WithNoFaults(),
		WithAgentSlots(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := site.Reset(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
		mustRun(b, site, simclock.Day)
	}
}

// BenchmarkCampaignTrialReuse measures one campaign trial on the pooled
// fast path: Site.Reset to a new seed plus a one-day agents run, the cost
// a campaign cell pays per additional seed. Compare
// BenchmarkCampaignTrialFresh for the build-per-trial cost it replaces.
func BenchmarkCampaignTrialReuse(b *testing.B) {
	site := mustSite(b, SmallTopology(), WithSeed(1), WithMode(ModeAgents))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := site.Reset(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
		mustRun(b, site, simclock.Day)
	}
}

// BenchmarkMegaSiteDay measures one simulated day on the 10k-host
// megasite — the datacentre-scale configuration the batched probe
// dispatcher exists for, and the CI perf gate's scale data point. The
// site is built once and Reset per iteration, the pooled-campaign usage
// pattern. With MEGASITE_REFERENCE=1 in the environment the probe engine
// runs its per-service reference path instead — `make megasite-seed`
// records that configuration as the checked-in baseline the speedup
// proof compares against.
func BenchmarkMegaSiteDay(b *testing.B) {
	topo, ok := ResolveTopology("megasite")
	if !ok {
		b.Fatal("megasite not registered")
	}
	opts := []Option{WithSeed(1), WithMode(ModeManual)}
	if os.Getenv("MEGASITE_REFERENCE") == "1" {
		opts = append(opts, WithReferenceProbes())
	}
	site := mustSite(b, topo, opts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := site.Reset(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
		mustRun(b, site, simclock.Day)
	}
}

// BenchmarkPaperManualDay measures one simulated manual-mode day on the
// paper site: the workload refresh and batch arrivals through LSF, fault
// injection and operator repair, with the BMC monitors resident but not
// polling — the per-trial inner loop of a fig2 "before" campaign. Built
// once and Reset per iteration, the pooled-campaign usage pattern.
func BenchmarkPaperManualDay(b *testing.B) {
	site := mustSite(b, PaperTopology(), WithSeed(1), WithMode(ModeManual))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := site.Reset(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
		mustRun(b, site, simclock.Day)
	}
}

// BenchmarkMegaSiteDayShards is BenchmarkMegaSiteDay with intra-trial
// sharding at 8 shards: probe walks for each tick window fan out over the
// shard pool and merge deterministically at the tick boundary, so the
// report is byte-identical to the serial walk (gated by
// TestShardEquivalence) while the wall clock drops on multi-core
// machines. `make perf-proof` demands >= 1.5x over the same build's
// serial BenchmarkMegaSiteDay when enough cores are present; in the CI
// perf gate it is tracked like any other data point.
func BenchmarkMegaSiteDayShards(b *testing.B) {
	topo, ok := ResolveTopology("megasite")
	if !ok {
		b.Fatal("megasite not registered")
	}
	site := mustSite(b, topo, WithSeed(1), WithMode(ModeManual), WithShards(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := site.Reset(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
		mustRun(b, site, simclock.Day)
	}
}

// BenchmarkCampaignTrialFresh is the seed-path baseline for
// BenchmarkCampaignTrialReuse: the same trial with a fresh site built per
// iteration, as campaigns ran before pooled reuse.
func BenchmarkCampaignTrialFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		site := mustSite(b, SmallTopology(), WithSeed(uint64(i+1)), WithMode(ModeAgents))
		mustRun(b, site, simclock.Day)
	}
}
