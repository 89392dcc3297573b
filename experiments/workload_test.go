package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qoscluster "repro"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func TestParseTierLoadScale(t *testing.T) {
	good, err := ParseTierLoadScale(" db=2, fe=0.5 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 2 || good["db"] != 2 || good["fe"] != 0.5 {
		t.Errorf("parsed %v", good)
	}
	if m, err := ParseTierLoadScale(""); err != nil || m != nil {
		t.Errorf("empty spec: %v, %v", m, err)
	}
	for _, bad := range []string{"db", "=2", "db=", "db=x", "db=-1", "db=2,db=3", ","} {
		if _, err := ParseTierLoadScale(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
	// The two axes share a parser but must name themselves in errors.
	if _, err := ParseTierLoadScale("db="); err == nil || !strings.Contains(err.Error(), "tier-load") {
		t.Errorf("tier-load error not self-naming: %v", err)
	}
}

func TestResolveWorkloads(t *testing.T) {
	// Registered names and the blank cell pass through untouched.
	got, err := ResolveWorkloads([]string{"", "paper", "flashcrowd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "" || got[1] != "paper" || got[2] != "flashcrowd" {
		t.Errorf("resolved %v", got)
	}

	// A spec file loads, registers, and resolves to its declared name.
	sp := workload.PaperSpec()
	sp.Name = "resolve-workloads-file"
	js, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wl.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ResolveWorkloads([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "resolve-workloads-file" {
		t.Errorf("file resolved to %v", got)
	}
	if _, ok := workload.SpecByName("resolve-workloads-file"); !ok {
		t.Error("loaded spec not registered")
	}
	// Re-loading the identical file is fine; the same resolved name twice
	// in one axis is not (duplicate aggregation cells).
	if _, err := ResolveWorkloads([]string{path}); err != nil {
		t.Errorf("identical re-load rejected: %v", err)
	}
	if _, err := ResolveWorkloads([]string{path, "resolve-workloads-file"}); err == nil {
		t.Error("duplicate resolved name accepted")
	}

	// A file whose declared name collides with a different registered
	// spec must be rejected, not silently replace it.
	clash := workload.FailoverSpec()
	clash.Name = "resolve-workloads-file"
	js, err = json.Marshal(clash)
	if err != nil {
		t.Fatal(err)
	}
	clashPath := filepath.Join(t.TempDir(), "clash.json")
	if err := os.WriteFile(clashPath, js, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveWorkloads([]string{clashPath}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("name collision accepted: %v", err)
	}

	if _, err := ResolveWorkloads([]string{"no-such-spec-or-file"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWorkloadCampaignAxis runs a real two-cell campaign on the small
// site — its own workload vs the flash-crowd spec — and checks the cells
// aggregate separately, render with the axis label, and stay
// byte-identical across worker counts.
func TestWorkloadCampaignAxis(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 7, Days: 3, Sites: []string{"small"}, Workloads: []string{"", "flashcrowd"}, Trials: 2}
	m, err := CampaignMatrix("before", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != 2 || m.Workloads[1] != "flashcrowd" {
		t.Fatalf("matrix workload axis = %v", m.Workloads)
	}
	cfg.Workers = 1
	res1, err := Campaign("before", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if errs := res1.Errs(); len(errs) > 0 {
		t.Fatalf("%d failed trials; first: %s", len(errs), errs[0].Err)
	}
	if len(res1.Groups) != 2 || res1.Groups[1].Workload != "flashcrowd" {
		t.Fatalf("groups wrong: %+v", res1.Groups)
	}
	out := qoscluster.FormatCampaign(res1)
	if !strings.Contains(out, "workload=flashcrowd") {
		t.Errorf("FormatCampaign missing workload label:\n%s", out)
	}

	cfg.Workers = 8
	res8, err := Campaign("before", cfg)
	if err != nil {
		t.Fatal(err)
	}
	js1, err1 := res1.JSON()
	js8, err8 := res8.JSON()
	if err1 != nil || err8 != nil {
		t.Fatal(err1, err8)
	}
	if !bytes.Equal(js1, js8) {
		t.Errorf("workload campaign JSON differs between 1 and 8 workers:\n%s", firstDiff(js1, js8))
	}
}

// TestTierLoadCampaignAxis: the -tierload twin of -tierfaults rides the
// same validation — unknown tiers and duplicate cells fail at
// matrix-build time, and a real sweep aggregates per cell.
func TestTierLoadCampaignAxis(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 7, Days: 3, Sites: []string{"small"}, TierLoadScales: []string{"", "db=3"},
		Trials: 1, Exec: Exec{Workers: 2}}
	m, err := CampaignMatrix("before", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.TierLoads) != 2 {
		t.Fatalf("matrix tier-load axis = %v", m.TierLoads)
	}
	res, err := Campaign("before", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) > 0 {
		t.Fatalf("%d failed trials; first: %s", len(errs), errs[0].Err)
	}
	if len(res.Groups) != 2 || res.Groups[1].TierLoad != "db=3" {
		t.Fatalf("groups wrong: %+v", res.Groups)
	}
	if out := qoscluster.FormatCampaign(res); !strings.Contains(out, "tierload=db=3") {
		t.Errorf("FormatCampaign missing tierload label:\n%s", out)
	}
}

func TestWorkloadAxesRejected(t *testing.T) {
	// Rig scenarios have no site workload generator and no tiers.
	cfg := Config{Seed: 7, Workloads: []string{"paper"}}
	if _, err := CampaignMatrix("overhead", cfg, 2); err == nil ||
		!strings.Contains(err.Error(), "workload") {
		t.Errorf("rig scenario accepted the workload axis: %v", err)
	}
	cfg = Config{Seed: 7, TierLoadScales: []string{"db=2"}}
	if _, err := CampaignMatrix("overhead", cfg, 2); err == nil ||
		!strings.Contains(err.Error(), "tierload") {
		t.Errorf("rig scenario accepted the tier-load axis: %v", err)
	}

	// Unknown workload names, unknown tiers, and duplicate cells fail at
	// matrix-build time for site scenarios.
	cfg = Config{Seed: 7, Sites: []string{"small"}, Workloads: []string{"no-such-spec"}}
	if _, err := CampaignMatrix("before", cfg, 2); err == nil {
		t.Error("unknown workload passed matrix validation")
	}
	cfg = Config{Seed: 7, Sites: []string{"small"}, Workloads: []string{"paper", "paper"}}
	if _, err := CampaignMatrix("before", cfg, 2); err == nil {
		t.Error("duplicate workload cells passed matrix validation")
	}
	cfg = Config{Seed: 7, Sites: []string{"small"}, TierLoadScales: []string{"bogus=2"}}
	if _, err := CampaignMatrix("before", cfg, 2); err == nil ||
		!strings.Contains(err.Error(), "-tierload") {
		t.Errorf("unknown tier-load tier accepted: %v", err)
	}
	cfg = Config{Seed: 7, Sites: []string{"small"}, TierLoadScales: []string{"db=2", "db=2"}}
	if _, err := CampaignMatrix("before", cfg, 2); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate tier-load cells accepted: %v", err)
	}
}

// TestWorkloadSpecEquivalence is the determinism gate for spec-driven
// workloads: a flash-crowd campaign on the small site must produce
// byte-identical campaign JSON at every worker count x shard count
// combination, and the sharded engine must match the single-goroutine
// reference path. If any byte moves, the statistical arrival engine has
// leaked scheduling or RNG order into a reproduced number; fix the
// engine, do not regenerate expectations.
func TestWorkloadSpecEquivalence(t *testing.T) {
	t.Parallel()
	m := campaign.Matrix{
		Seeds:     campaign.Seeds(7, 2),
		Scenarios: []string{"year"},
		Sites:     []string{"small"},
		Modes:     []string{"manual"},
		Days:      2,
		Workloads: []string{"flashcrowd"},
		TierLoads: []string{"db=2"},
	}
	ref, err := campaign.Run("workload-equivalence", m, 1, ReferenceRunTrial)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if errs := ref.Errs(); len(errs) > 0 {
		t.Fatalf("reference campaign had %d failed trials; first: %s", len(errs), errs[0].Err)
	}
	want, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 8} {
			res, err := campaign.Run("workload-equivalence", m, workers, newPooledRunFunc(Exec{Shards: shards}, nil))
			if err != nil {
				t.Fatalf("campaign (%d workers, %d shards): %v", workers, shards, err)
			}
			if errs := res.Errs(); len(errs) > 0 {
				t.Fatalf("campaign (%d workers, %d shards) had %d failed trials; first: %s",
					workers, shards, len(errs), errs[0].Err)
			}
			got, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("spec-driven campaign diverged from reference at %d workers, %d shards:\n%s",
					workers, shards, firstDiff(want, got))
			}
		}
	}
}

// hostTier maps a host to its topology tier by the rule NewSite names
// hosts with, the tier name and then a three-digit index; the mode-added
// administration hosts belong to no tier ("").
func hostTier(topo qoscluster.Topology, host string) string {
	for _, tier := range topo.Tiers {
		if n, ok := strings.CutPrefix(host, tier.Name); ok && len(n) == 3 {
			return tier.Name
		}
	}
	return ""
}

// TestTierLoadShiftsWork pins what the -tierload axis actually moves:
// scaling a tier's workload weights changes the load its hosts carry —
// db=3 triples the ad-hoc query ambience on the database tier, tx=0
// silences the market feed entirely. (Front-end Share is a *relative*
// analyst weight normalised across front-end hosts, so scaling the only
// front-end tier uniformly is deliberately a no-op.)
func TestTierLoadShiftsWork(t *testing.T) {
	t.Parallel()
	build := func(opts ...qoscluster.Option) *qoscluster.Site {
		t.Helper()
		site, err := buildNamedSite("small", "", 7, append(opts, qoscluster.WithNoFaults())...)
		if err != nil {
			t.Fatal(err)
		}
		// 11:00 Monday: mid business day, ambient load near its peak.
		if err := site.Run(11 * simclock.Hour); err != nil {
			t.Fatal(err)
		}
		return site
	}
	tierLoad := func(site *qoscluster.Site, tier string, f func(*cluster.Host) float64) float64 {
		var sum float64
		for _, h := range site.DC.Hosts() {
			if hostTier(site.Topo, h.Name) == tier {
				sum += f(h)
			}
		}
		return sum
	}
	cpus := func(h *cluster.Host) float64 { return h.CPUUtilisation() * float64(h.Model.CPUs) }
	busy := func(h *cluster.Host) float64 { return h.IOStat().BusyPct }
	base := build()
	scaled := build(func(o *qoscluster.Options) { o.TierLoadScale = map[string]float64{"db": 3, "tx": 0} })
	if b, s := tierLoad(base, "db", cpus), tierLoad(scaled, "db", cpus); s < 1.5*b {
		t.Errorf("db=3 did not raise database load: base %.3f CPUs, scaled %.3f", b, s)
	}
	if tierLoad(base, "tx", busy) == 0 {
		t.Error("baseline tx tier carries no feed load at all")
	}
	if got := tierLoad(scaled, "tx", busy); got != 0 {
		t.Errorf("tx=0 left feed load on the transaction tier: summed busy %.1f%%", got)
	}
}
