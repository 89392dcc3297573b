package qoscluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/simclock"
)

func TestFormatCampaign(t *testing.T) {
	fn := func(tr campaign.Trial) (map[string]float64, error) {
		return map[string]float64{"downtime_h/total": float64(tr.Seed) * 2}, nil
	}
	m := campaign.Matrix{
		Seeds:     campaign.Seeds(1, 3),
		Scenarios: []string{"year"},
		Sites:     []string{"small"},
		Modes:     []string{"manual", "agents"},
		Days:      30,
	}
	res, err := campaign.Run("fig2", m, 2, fn)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatCampaign(res)
	for _, want := range []string{
		"campaign fig2: 6 trials, 2 groups",
		"scenario=year site=small mode=manual days=30 (3 seeds)",
		"mode=agents",
		"±95% CI",
		"downtime_h/total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatCampaign missing %q:\n%s", want, out)
		}
	}
	// Seeds 1..3 → values 2,4,6: mean 4 with the min/max envelope shown.
	if !strings.Contains(out, "4.000") || !strings.Contains(out, "2.000") || !strings.Contains(out, "6.000") {
		t.Errorf("aggregate row wrong:\n%s", out)
	}
}

// TestFormatCampaignGolden pins the campaign tables byte for byte on
// hand-computed fixtures, CI bands and significance included:
//
//	{1,2,3}: mean 2, stddev 1,  CI95 = 4.303·1/√3 = 2.484…
//	{2,4,6}: mean 4, stddev 2,  CI95 = 4.303·2/√3 = 4.969…
//	{1,2,3,4}: mean 2.5, stddev √(5/3), CI95 = 3.182·√(5/3)/2 = 2.054…
//	{9}: singleton — zero spread, zero CI
//
// The cron sweep's second cell pairs with the first by seed: differences
// {1,2,3}, t = 2/(1/√3) = 3.464, df 2, two-sided p = 0.0742…
func TestFormatCampaignGolden(t *testing.T) {
	cases := []struct {
		name string
		m    campaign.Matrix
		fn   campaign.RunFunc
		want string
	}{
		{
			name: "option-axis cron sweep",
			m: campaign.Matrix{
				Seeds:       campaign.Seeds(1, 3),
				Scenarios:   []string{"ablate-cron"},
				Modes:       []string{"agents"},
				CronPeriods: []simclock.Time{simclock.Minute, 5 * simclock.Minute},
				Days:        30,
			},
			fn: func(tr campaign.Trial) (map[string]float64, error) {
				v := float64(tr.Seed)
				if tr.CronPeriod == 5*simclock.Minute {
					v *= 2
				}
				return map[string]float64{"detect_s": v}, nil
			},
			want: `=== campaign golden: 6 trials, 2 groups ===

--- scenario=ablate-cron mode=agents days=30 cron=1m0s (3 seeds) ---
metric                               mean    ±95% CI          min          max
detect_s                            2.000      2.484        1.000        3.000

--- scenario=ablate-cron mode=agents days=30 cron=5m0s (3 seeds) ---
metric                               mean    ±95% CI          min          max p-vs-first
detect_s                            4.000      4.969        2.000        6.000     0.0742
`,
		},
		{
			name: "four seeds two metrics",
			m: campaign.Matrix{
				Seeds:         campaign.Seeds(1, 4),
				Scenarios:     []string{"ablate-rescue"},
				NoBatchRescue: []bool{true},
				Days:          90,
			},
			fn: func(tr campaign.Trial) (map[string]float64, error) {
				return map[string]float64{
					"jobs_failed": float64(tr.Seed),
					"jobs_done":   100,
				}, nil
			},
			want: `=== campaign golden: 4 trials, 1 groups ===

--- scenario=ablate-rescue days=90 no-batch-rescue (4 seeds) ---
metric                               mean    ±95% CI          min          max
jobs_done                         100.000      0.000      100.000      100.000
jobs_failed                         2.500      2.054        1.000        4.000
`,
		},
		{
			name: "singleton seed",
			m: campaign.Matrix{
				Seeds:     []uint64{9},
				Overrides: []string{"tuned"},
			},
			fn: func(tr campaign.Trial) (map[string]float64, error) {
				return map[string]float64{"v": float64(tr.Seed)}, nil
			},
			want: `=== campaign golden: 1 trials, 1 groups ===

--- overrides=tuned (1 seeds) ---
metric                               mean    ±95% CI          min          max
v                                   9.000      0.000        9.000        9.000
`,
		},
		{
			name: "slotted agents",
			m: campaign.Matrix{
				Seeds:      campaign.Seeds(1, 3),
				Scenarios:  []string{"year"},
				Sites:      []string{"small"},
				Modes:      []string{"agents"},
				Days:       1,
				AgentSlots: 8,
			},
			fn: func(tr campaign.Trial) (map[string]float64, error) {
				return map[string]float64{"v": float64(tr.Seed)}, nil
			},
			want: `=== campaign golden: 3 trials, 1 groups ===

--- scenario=year site=small mode=agents days=1 agentslots=8 (3 seeds) ---
metric                               mean    ±95% CI          min          max
v                                   2.000      2.484        1.000        3.000
`,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := campaign.Run("golden", c.m, 1, c.fn)
			if err != nil {
				t.Fatal(err)
			}
			if got := FormatCampaign(res); got != c.want {
				t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, c.want)
			}
		})
	}
}

func TestFormatCampaignFailedTrials(t *testing.T) {
	fn := func(tr campaign.Trial) (map[string]float64, error) {
		if tr.Seed == 2 {
			panic("kaboom")
		}
		return map[string]float64{"v": 1}, nil
	}
	res, err := campaign.Run("errs", campaign.Matrix{Seeds: campaign.Seeds(1, 3)}, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatCampaign(res)
	if !strings.Contains(out, "1 FAILED") || !strings.Contains(out, "kaboom") {
		t.Errorf("failed trial not surfaced:\n%s", out)
	}
}

// TestSignificancePairingRequiresFullSamples: a metric missing from some
// seeds (conditionally emitted) must fall back to Welch even when both
// groups happen to have equal-length samples — equal length alone does
// not mean the samples align seed for seed.
func TestSignificancePairingRequiresFullSamples(t *testing.T) {
	m := campaign.Matrix{
		Seeds: campaign.Seeds(1, 4),
		Modes: []string{"manual", "agents"},
	}
	fn := func(tr campaign.Trial) (map[string]float64, error) {
		vals := map[string]float64{"always": float64(tr.Seed)}
		// "sometimes" skips seed 4 in the first cell and seed 3 in the
		// second: both cells end with 3 samples, but misaligned.
		skip := uint64(4)
		v := float64(tr.Seed)
		if tr.Mode == "agents" {
			skip = 3
			v *= 2
		}
		if tr.Seed != skip {
			vals["sometimes"] = v
		}
		return vals, nil
	}
	res, err := campaign.Run("partial", m, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatCampaign(res)
	// The full metric pairs: diffs {1,2,3,4} → t = mean/sd/√n = 2.5/(1.291/2)
	// = 3.873, df 3, p = 0.0305. The partial metric must use Welch over
	// {1,2,3} vs {2,4,8}... i.e. NOT the paired p over those vectors.
	base, cell := []float64{1, 2, 3}, []float64{2, 4, 8}
	welch, _ := campaign.TTest(base, cell, false)
	pairedWrong, _ := campaign.TTest(base, cell, true)
	wantWelch := fmt.Sprintf("%10.4f", welch)
	wrong := fmt.Sprintf("%10.4f", pairedWrong)
	if wantWelch == wrong {
		t.Fatalf("test fixture cannot distinguish welch %s from paired %s", wantWelch, wrong)
	}
	// Only the second group's table carries the p column; skip the
	// baseline group's rows.
	lines := strings.Split(out, "\n")
	found := false
	inSecond := false
	for _, line := range lines {
		if strings.HasPrefix(line, "--- mode=agents") {
			inSecond = true
		}
		if inSecond && strings.HasPrefix(line, "sometimes") {
			found = true
			if !strings.Contains(line, strings.TrimSpace(wantWelch)) {
				t.Errorf("partial metric row %q; want the Welch p %s, not the misaligned paired p %s",
					line, wantWelch, wrong)
			}
		}
	}
	if !found {
		t.Fatal("no 'sometimes' row in the second group's table")
	}
}
