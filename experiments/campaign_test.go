package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	qoscluster "repro"
	"repro/internal/campaign"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func TestCampaignMatrixNames(t *testing.T) {
	cfg := Config{Seed: 7}
	m, err := CampaignMatrix("fig2", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trials()) != 8 { // 4 seeds × {manual, agents}
		t.Errorf("fig2 matrix wrong: %+v", m)
	}
	if m.Days != 365 || m.Sites[0] != "small" {
		t.Errorf("defaults wrong: %+v", m)
	}
	if _, err := CampaignMatrix("bogus", cfg, 4); err == nil {
		t.Error("unknown campaign name should error")
	}
}

// TestCampaignMatrixRejectsNegativeCounts: a negative trial count or span
// is refused with the flag named, before Seeds sizes a slice by it.
func TestCampaignMatrixRejectsNegativeCounts(t *testing.T) {
	for _, c := range []struct {
		flag   string
		cfg    Config
		trials int
	}{
		{"-trials", Config{Seed: 7}, -2},
		{"-days", Config{Seed: 7, Days: -3}, 2},
	} {
		if _, err := CampaignMatrix("before", c.cfg, c.trials); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("negative %s: err = %v, want an error naming the flag", c.flag, err)
		}
	}
}

// TestCampaignBeforeAfterShort runs a real (short) before/after matrix and
// checks the aggregates carry the paper's headline metrics.
func TestCampaignBeforeAfterShort(t *testing.T) {
	res, err := Campaign("fig2", Config{Seed: 7, Days: 2, Trials: 2, Exec: Exec{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 4 || len(res.Groups) != 2 {
		t.Fatalf("want 4 trials in 2 groups, got %d/%d", len(res.Trials), len(res.Groups))
	}
	for _, tr := range res.Trials {
		if tr.Err != "" {
			t.Fatalf("trial failed: %+v", tr)
		}
	}
	for _, g := range res.Groups {
		if g.Seeds != 2 {
			t.Errorf("group %q seeds = %d, want 2", g.Mode, g.Seeds)
		}
		for _, key := range []string{"downtime_h/total", "availability_pct", "detect_mean_s", "jobs_done", "downtime_h/mid-crash"} {
			if _, ok := g.Stats[key]; !ok {
				t.Errorf("group %q missing metric %q", g.Mode, key)
			}
		}
		av := g.Stats["availability_pct"]
		if av.Mean < 0 || av.Mean > 100 {
			t.Errorf("availability out of range: %+v", av)
		}
	}
	if res.Groups[0].Mode != "manual" || res.Groups[1].Mode != "agents" {
		t.Errorf("group order wrong: %+v", res.Groups)
	}
}

// TestCampaignDeterministicAcrossWorkers is the end-to-end determinism
// gate on real simulations: the same seed set must serialise
// byte-identically at one worker and at eight. The latency and
// ablate-cron campaigns are in the gate because their trials exercise
// the option axes (per-cell cron periods) and the per-window metric
// extraction.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"before", Config{Seed: 11, Days: 2, Trials: 3}},
		{"latency", Config{Seed: 11, Days: 2, Trials: 2}},
		{"ablate-cron", Config{Seed: 11, Days: 2, Trials: 2,
			CronPeriods: []simclock.Time{5 * simclock.Minute, 15 * simclock.Minute}}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(workers int) []byte {
				cfg := c.cfg
				cfg.Workers = workers
				res, err := Campaign(c.name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				js, err := res.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return js
			}
			serial := run(1)
			parallel := run(8)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("campaign JSON differs between -workers 1 and -workers 8:\n%s\n----\n%s", serial, parallel)
			}
		})
	}
}

// TestCampaignExecReachesSites checks that Campaign hands its Config's
// execution settings to every site its run function builds: the shard
// count (0 when unsharded), and a trace recorder at the configured level
// exactly when the campaign writes a trace. Campaign JSON cannot show
// either setting, since both leave it byte-identical.
func TestCampaignExecReachesSites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	cases := []struct {
		exec   Exec
		shards int
		level  int // 0: the site must build no recorder
	}{
		{Exec{}, 0, 0},
		{Exec{Shards: 3}, 3, 0},
		{Exec{TraceLevel: trace.LevelFull}, 0, 0}, // no trace file: no recorder
		{Exec{Shards: 2, TracePath: path}, 2, trace.LevelDecisions},
		{Exec{TracePath: path, TraceLevel: trace.LevelFull}, 0, trace.LevelFull},
	}
	defer func() { siteBuilt = nil }()
	for _, c := range cases {
		var mu sync.Mutex
		var sites []*qoscluster.Site
		siteBuilt = func(s *qoscluster.Site) {
			mu.Lock()
			sites = append(sites, s)
			mu.Unlock()
		}
		exec := c.exec
		exec.Workers = 2
		res, err := Campaign("before", Config{Seed: 7, Days: 1, Trials: 2, Exec: exec})
		if err != nil {
			t.Fatalf("%+v: %v", c.exec, err)
		}
		if errs := res.Errs(); len(errs) > 0 {
			t.Fatalf("%+v: %d failed trials; first: %s", c.exec, len(errs), errs[0].Err)
		}
		if len(sites) == 0 {
			t.Fatalf("%+v: the campaign built no sites", c.exec)
		}
		for _, s := range sites {
			if got := s.Opts.Shards; got != c.shards {
				t.Errorf("%+v: site runs %d shards, want %d", c.exec, got, c.shards)
			}
			if got := s.Trace != nil; got != (c.level > 0) {
				t.Errorf("%+v: site has a trace recorder: %v, want %v", c.exec, got, c.level > 0)
			}
			if c.level > 0 && s.Opts.TraceLevel != c.level {
				t.Errorf("%+v: site traces at level %d, want %d", c.exec, s.Opts.TraceLevel, c.level)
			}
		}
	}
}

// TestCampaignMatrixRejectsDuplicateCron: two -cron periods that parse
// equal would share one aggregation group and fold their seeds together,
// so CampaignMatrix refuses them, naming the flag.
func TestCampaignMatrixRejectsDuplicateCron(t *testing.T) {
	for _, periods := range [][]simclock.Time{
		{5 * simclock.Minute, 5 * simclock.Minute},
		{simclock.Minute, 5 * simclock.Minute, 300 * simclock.Second},
	} {
		_, err := CampaignMatrix("ablate-cron", Config{Seed: 7, CronPeriods: periods}, 2)
		if err == nil || !strings.Contains(err.Error(), "-cron") || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("periods %v: err = %v, want a -cron duplicate error", periods, err)
		}
	}
	if _, err := CampaignMatrix("ablate-cron", Config{Seed: 7,
		CronPeriods: []simclock.Time{5 * simclock.Minute, 15 * simclock.Minute}}, 2); err != nil {
		t.Errorf("distinct periods rejected: %v", err)
	}
}

// TestCampaignMatrixOptionAxes pins the axes each new scenario sweeps.
func TestCampaignMatrixOptionAxes(t *testing.T) {
	cfg := Config{Seed: 7}

	m, err := CampaignMatrix("ablate-cron", cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.CronPeriods) != 4 || m.CronPeriods[0] != simclock.Minute || m.CronPeriods[3] != 60*simclock.Minute {
		t.Errorf("ablate-cron default axis wrong: %v", m.CronPeriods)
	}
	if m.Days != DefaultAblationDays || len(m.Trials()) != 12 { // 4 periods × 3 seeds
		t.Errorf("ablate-cron matrix wrong: days=%d trials=%d", m.Days, len(m.Trials()))
	}
	cfg.CronPeriods = []simclock.Time{30 * simclock.Minute}
	if m, _ = CampaignMatrix("ablate-cron", cfg, 3); len(m.CronPeriods) != 1 || m.CronPeriods[0] != 30*simclock.Minute {
		t.Errorf("CronPeriods override ignored: %v", m.CronPeriods)
	}

	if m, _ = CampaignMatrix("ablate-rescue", Config{}, 2); len(m.NoBatchRescue) != 2 || m.NoBatchRescue[0] || !m.NoBatchRescue[1] {
		t.Errorf("ablate-rescue axis wrong: %v", m.NoBatchRescue)
	}
	if m, _ = CampaignMatrix("ablate-net", Config{}, 2); len(m.DisablePrivateNet) != 2 {
		t.Errorf("ablate-net axis wrong: %v", m.DisablePrivateNet)
	}
	if m, _ = CampaignMatrix("latency", Config{}, 2); len(m.Modes) != 2 || m.Days != 365 {
		t.Errorf("latency matrix wrong: %+v", m)
	}
	if m, _ = CampaignMatrix("mttr", Config{}, 2); len(m.Modes) != 1 || m.Modes[0] != "manual" {
		t.Errorf("mttr matrix wrong: %+v", m)
	}
	if m, _ = CampaignMatrix("ablate-resident", Config{}, 2); m.Days != 0 {
		t.Errorf("ablate-resident should carry no Days coordinate: %+v", m)
	}
}

// TestTrialOptions pins how a trial's coordinates become
// qoscluster.Options, including the opaque per-cell override hook.
func TestTrialOptions(t *testing.T) {
	o, err := trialOptions(campaign.Trial{Cell: campaign.Cell{
		Mode: "agents", AgentSet: "full", CronPeriod: 15 * simclock.Minute,
		NoBatchRescue: true, DisablePrivateNet: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Mode != qoscluster.ModeAgents || o.AgentSet != qoscluster.AgentsFull ||
		o.CronPeriod != 15*simclock.Minute || !o.NoBatchRescue || !o.DisablePrivateNet {
		t.Errorf("options not mapped from axes: %+v", o)
	}

	if _, err := trialOptions(campaign.Trial{Cell: campaign.Cell{Mode: "bogus"}}); err == nil {
		t.Error("unknown mode should error")
	}
	if _, err := trialOptions(campaign.Trial{Cell: campaign.Cell{AgentSet: "bogus"}}); err == nil {
		t.Error("unknown agent set should error")
	}
	if _, err := trialOptions(campaign.Trial{Cell: campaign.Cell{Overrides: "unregistered"}}); err == nil {
		t.Error("unknown override should error")
	}

	RegisterOverride("test-cron-30m", func(o *qoscluster.Options) {
		o.CronPeriod = 30 * simclock.Minute
	})
	defer RegisterOverride("test-cron-30m", nil)
	o, err = trialOptions(campaign.Trial{Cell: campaign.Cell{Mode: "agents", CronPeriod: simclock.Minute, Overrides: "test-cron-30m"}})
	if err != nil {
		t.Fatal(err)
	}
	if o.CronPeriod != 30*simclock.Minute {
		t.Errorf("override should run after the axes: CronPeriod = %v", o.CronPeriod)
	}
	if _, err := trialOptions(campaign.Trial{Cell: campaign.Cell{Overrides: "test-cron-30m"}}); err != nil {
		t.Errorf("registered override rejected: %v", err)
	}
	RegisterOverride("test-cron-30m", nil)
	if _, err := trialOptions(campaign.Trial{Cell: campaign.Cell{Overrides: "test-cron-30m"}}); err == nil {
		t.Error("deregistered override should error")
	}
}

// TestCampaignAblateNetShort runs the private-network ablation for real
// and checks the axis splits traffic the way the paper says.
func TestCampaignAblateNetShort(t *testing.T) {
	res, err := Campaign("ablate-net", Config{Seed: 7, Days: 3, Trials: 2, Exec: Exec{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("want with/without groups, got %d", len(res.Groups))
	}
	withNet, without := res.Groups[0], res.Groups[1]
	if withNet.DisablePrivateNet || !without.DisablePrivateNet {
		t.Fatalf("group axis order wrong: %+v / %+v", withNet, without)
	}
	if withNet.Stats["private_lan_mb"].Mean <= 0 {
		t.Errorf("private network carried no traffic: %+v", withNet.Stats)
	}
	if without.Stats["private_lan_mb"].Mean != 0 {
		t.Errorf("disabled private network still carried traffic: %+v", without.Stats)
	}
	if without.Stats["public_lan_mb"].Mean <= withNet.Stats["public_lan_mb"].Mean {
		t.Errorf("public LAN should carry more without the private net: with=%.3f without=%.3f",
			withNet.Stats["public_lan_mb"].Mean, without.Stats["public_lan_mb"].Mean)
	}
}

// TestCampaignResident checks the duty-cycle ablation aggregates.
func TestCampaignResident(t *testing.T) {
	res, err := Campaign("ablate-resident", Config{Seed: 7, Trials: 2, Exec: Exec{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	for _, key := range []string{"bmc_cpu_pct", "agent_cpu_pct", "resident_cpu_pct",
		"bmc_mem_mb", "agent_mem_mb", "resident_mem_mb"} {
		if _, ok := g.Stats[key]; !ok {
			t.Errorf("ablate-resident missing %q", key)
		}
	}
	if g.Stats["resident_cpu_pct"].Mean <= g.Stats["agent_cpu_pct"].Mean {
		t.Error("a resident suite must cost more CPU than the cron-awakened one")
	}
	if g.Stats["resident_mem_mb"].Mean <= g.Stats["agent_mem_mb"].Mean {
		t.Error("a resident suite must hold more memory than the cron-awakened one")
	}
}

// TestRunTrialRejectsBadCoordinates covers the error paths campaigns
// surface as failed trials.
func TestRunTrialRejectsBadCoordinates(t *testing.T) {
	if _, err := RunTrial(campaign.Trial{Cell: campaign.Cell{Scenario: "bogus"}}); err == nil {
		t.Error("unknown scenario should error")
	}
	if _, err := RunTrial(campaign.Trial{Cell: campaign.Cell{Scenario: "year", Mode: "bogus", Days: 1}}); err == nil {
		t.Error("unknown mode should error")
	}
	if _, err := RunTrial(campaign.Trial{Cell: campaign.Cell{Scenario: "latency", Overrides: "nope", Days: 1}}); err == nil {
		t.Error("unregistered override should error")
	}
}

// TestCampaignOverhead sweeps the Figure-3 rig across seeds.
func TestCampaignOverhead(t *testing.T) {
	res, err := Campaign("fig3", Config{Seed: 7, Trials: 2, Exec: Exec{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	ratio, ok := g.Stats["cpu_ratio_x"]
	if !ok || ratio.N != 2 {
		t.Fatalf("cpu_ratio_x missing: %+v", g)
	}
	if ratio.Mean < 5 || ratio.Mean > 40 {
		t.Errorf("bmc/agent cpu ratio = %.1f, want ~10x", ratio.Mean)
	}
	if _, ok := g.Stats["bmc_mem_mb"]; ok {
		t.Error("fig3 should not report memory metrics")
	}

	// "overhead" is one scenario reporting both series from a single rig
	// run per seed.
	res, err = Campaign("overhead", Config{Seed: 7, Trials: 2, Exec: Exec{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 2 {
		t.Fatalf("overhead should be one scenario (2 trials), got %d", len(res.Trials))
	}
	g = res.Groups[0]
	for _, key := range []string{"cpu_ratio_x", "mem_ratio_x", "bmc_cpu_pct", "bmc_mem_mb"} {
		if _, ok := g.Stats[key]; !ok {
			t.Errorf("overhead missing %q", key)
		}
	}
}
