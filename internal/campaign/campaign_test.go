package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// simTrial is a miniature deterministic simulation: every trial owns its
// own simclock.Sim seeded from the trial, accumulates a pseudo-random sum
// on a repeating timer, and reports it. Mirrors how real campaign trials
// behave (seed-determined, shared-nothing) without the cost of a full
// site build.
func simTrial(t Trial) (map[string]float64, error) {
	sim := simclock.New(t.Seed)
	rng := sim.Rand()
	var sum float64
	sim.Every(0, simclock.Minute, "tick", func(simclock.Time) {
		sum += rng.Float64()
	})
	sim.RunUntil(simclock.Time(t.Days) * simclock.Hour) // cheap stand-in for days
	return map[string]float64{
		"sum":      sum,
		"scenario": float64(len(t.Scenario)),
	}, nil
}

func mustRun(t *testing.T, name string, m Matrix, workers int, fn RunFunc) *Result {
	t.Helper()
	res, err := Run(name, m, workers, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestDeterministicAcrossWorkers is the campaign contract: the same seed
// set produces byte-identical JSON at one worker and at eight, because
// trials share nothing and results land in matrix order.
func TestDeterministicAcrossWorkers(t *testing.T) {
	m := Matrix{
		Seeds:     Seeds(7, 12),
		Scenarios: []string{"before", "after"},
		Sites:     []string{"small"},
		Days:      3,
	}
	serial := mustJSON(t, mustRun(t, "det", m, 1, simTrial))
	parallel := mustJSON(t, mustRun(t, "det", m, 8, simTrial))
	if !bytes.Equal(serial, parallel) {
		t.Errorf("JSON differs between -workers 1 and -workers 8:\n%s\n----\n%s", serial, parallel)
	}
	if !strings.Contains(string(serial), `"groups"`) {
		t.Errorf("JSON missing groups:\n%s", serial)
	}
}

// TestPoolRace hammers the pool with many more trials than workers; run
// under -race this exercises the result fan-in for data races.
func TestPoolRace(t *testing.T) {
	m := Matrix{Seeds: Seeds(1, 64), Scenarios: []string{"x", "y"}, Days: 1}
	res := mustRun(t, "race", m, 16, simTrial)
	if len(res.Trials) != 128 {
		t.Fatalf("want 128 trials, got %d", len(res.Trials))
	}
	for i, tr := range res.Trials {
		if tr.Trial.Index != i {
			t.Fatalf("trial %d landed at slot %d", tr.Trial.Index, i)
		}
		if tr.Err != "" || tr.Metrics["sum"] <= 0 {
			t.Fatalf("trial %d malformed: %+v", i, tr)
		}
	}
}

func TestMatrixEnumeration(t *testing.T) {
	m := Matrix{Seeds: []uint64{5, 6}, Scenarios: []string{"s1", "s2"}, Modes: []string{"m1"}, Days: 2}
	trials := m.Trials()
	want := []Trial{
		{Index: 0, Seed: 5, Cell: Cell{Scenario: "s1", Mode: "m1", Days: 2}},
		{Index: 1, Seed: 6, Cell: Cell{Scenario: "s1", Mode: "m1", Days: 2}},
		{Index: 2, Seed: 5, Cell: Cell{Scenario: "s2", Mode: "m1", Days: 2}},
		{Index: 3, Seed: 6, Cell: Cell{Scenario: "s2", Mode: "m1", Days: 2}},
	}
	if len(trials) != len(want) {
		t.Fatalf("want %d trials, got %d", len(want), len(trials))
	}
	for i := range want {
		if trials[i] != want[i] {
			t.Errorf("trial %d = %+v, want %+v", i, trials[i], want[i])
		}
	}
}

// TestMatrixOptionAxisEnumeration pins the option-axis order: cron
// period varies before the boolean toggles, and every axis varies before
// the seed (the seed axis stays innermost so one group's trials are
// contiguous).
func TestMatrixOptionAxisEnumeration(t *testing.T) {
	m := Matrix{
		Seeds:         []uint64{1, 2},
		Scenarios:     []string{"sc"},
		CronPeriods:   []simclock.Time{simclock.Minute, 5 * simclock.Minute},
		NoBatchRescue: []bool{false, true},
		Days:          1,
	}
	trials := m.Trials()
	want := []Trial{
		{Index: 0, Seed: 1, Cell: Cell{Scenario: "sc", Days: 1, CronPeriod: simclock.Minute}},
		{Index: 1, Seed: 2, Cell: Cell{Scenario: "sc", Days: 1, CronPeriod: simclock.Minute}},
		{Index: 2, Seed: 1, Cell: Cell{Scenario: "sc", Days: 1, CronPeriod: simclock.Minute, NoBatchRescue: true}},
		{Index: 3, Seed: 2, Cell: Cell{Scenario: "sc", Days: 1, CronPeriod: simclock.Minute, NoBatchRescue: true}},
		{Index: 4, Seed: 1, Cell: Cell{Scenario: "sc", Days: 1, CronPeriod: 5 * simclock.Minute}},
		{Index: 5, Seed: 2, Cell: Cell{Scenario: "sc", Days: 1, CronPeriod: 5 * simclock.Minute}},
		{Index: 6, Seed: 1, Cell: Cell{Scenario: "sc", Days: 1, CronPeriod: 5 * simclock.Minute, NoBatchRescue: true}},
		{Index: 7, Seed: 2, Cell: Cell{Scenario: "sc", Days: 1, CronPeriod: 5 * simclock.Minute, NoBatchRescue: true}},
	}
	if len(trials) != len(want) {
		t.Fatalf("want %d trials, got %d", len(want), len(trials))
	}
	for i := range want {
		if trials[i] != want[i] {
			t.Errorf("trial %d = %+v, want %+v", i, trials[i], want[i])
		}
	}
}

// TestTrialJSONRoundTrip: the trial coordinates are part of the campaign
// record, so they must survive encode/decode exactly.
func TestTrialJSONRoundTrip(t *testing.T) {
	in := Trial{
		Index: 3, Seed: 11, Cell: Cell{Scenario: "ablate-cron", Site: "small", Mode: "agents",
			Days: 90, CronPeriod: 15 * simclock.Minute, AgentSet: "full",
			NoBatchRescue: true, DisablePrivateNet: true, Overrides: "custom"},
	}
	js, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Trial
	if err := json.Unmarshal(js, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed the trial:\n in: %+v\nout: %+v\n json: %s", in, out, js)
	}

	// Zero option axes stay out of the record: the JSON form of a plain
	// trial must not grow when axes it does not use are added.
	js, err = json.Marshal(Trial{Index: 1, Seed: 2, Cell: Cell{Scenario: "year"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"cron_period", "agent_set", "no_batch_rescue",
		"disable_private_net", "overrides"} {
		if bytes.Contains(js, []byte(forbidden)) {
			t.Errorf("zero axis %q serialised: %s", forbidden, js)
		}
	}
}

// TestAggregateGroupsByOptionAxes: cells differing only in an option
// axis must aggregate separately, in first-trial order.
func TestAggregateGroupsByOptionAxes(t *testing.T) {
	m := Matrix{
		Seeds:       Seeds(1, 3),
		CronPeriods: []simclock.Time{simclock.Minute, 5 * simclock.Minute},
		Overrides:   []string{"", "tuned"},
		Days:        1,
	}
	res := mustRun(t, "axes", m, 2, simTrial)
	if len(res.Groups) != 4 {
		t.Fatalf("want 4 groups (2 crons × 2 overrides), got %d", len(res.Groups))
	}
	wantGroups := []struct {
		cron simclock.Time
		ov   string
	}{
		{simclock.Minute, ""}, {simclock.Minute, "tuned"},
		{5 * simclock.Minute, ""}, {5 * simclock.Minute, "tuned"},
	}
	for i, w := range wantGroups {
		g := res.Groups[i]
		if g.CronPeriod != w.cron || g.Overrides != w.ov {
			t.Errorf("group %d = cron %v overrides %q, want cron %v overrides %q",
				i, g.CronPeriod, g.Overrides, w.cron, w.ov)
		}
		if g.Seeds != 3 || g.Stats["sum"].N != 3 {
			t.Errorf("group %d aggregated wrong seed count: %+v", i, g)
		}
	}
	// Same seed, same metrics: the seed axis, not the option axis, drives
	// simTrial, so sibling groups must agree — confirming grouping (not
	// metric content) is what separated them.
	if res.Groups[0].Stats["sum"] != res.Groups[1].Stats["sum"] {
		t.Errorf("sibling groups should carry identical stats: %+v vs %+v",
			res.Groups[0].Stats["sum"], res.Groups[1].Stats["sum"])
	}
}

func TestRunRejectsEmptyAndNil(t *testing.T) {
	if _, err := Run("e", Matrix{}, 1, simTrial); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := Run("e", Matrix{Seeds: Seeds(1, 1)}, 1, nil); err == nil {
		t.Error("nil RunFunc should error")
	}
}

func TestTrialErrorAndPanicIsolated(t *testing.T) {
	fn := func(tr Trial) (map[string]float64, error) {
		switch tr.Seed {
		case 2:
			return nil, errors.New("deliberate failure")
		case 3:
			panic("deliberate panic")
		}
		return map[string]float64{"v": float64(tr.Seed)}, nil
	}
	res := mustRun(t, "errs", Matrix{Seeds: Seeds(1, 4)}, 4, fn)
	errs := res.Errs()
	if len(errs) != 2 {
		t.Fatalf("want 2 failed trials, got %d: %+v", len(errs), errs)
	}
	if !strings.Contains(errs[1].Err, "panicked") {
		t.Errorf("panic not captured: %+v", errs[1])
	}
	if g := res.Groups[0]; g.Seeds != 2 || g.Errors != 2 || g.Stats["v"].N != 2 {
		t.Errorf("aggregate over failures wrong: %+v", g)
	}
	if _, err := res.JSON(); err != nil {
		t.Errorf("result with errors must still marshal: %v", err)
	}
}

func TestSanitizeDropsNonFinite(t *testing.T) {
	fn := func(tr Trial) (map[string]float64, error) {
		return map[string]float64{"ok": 1, "nan": nan(), "inf": inf()}, nil
	}
	res := mustRun(t, "nan", Matrix{Seeds: Seeds(1, 2)}, 1, fn)
	if _, err := res.JSON(); err != nil {
		t.Fatalf("non-finite metrics must not break JSON: %v", err)
	}
	if _, ok := res.Trials[0].Metrics["nan"]; ok {
		t.Error("NaN metric survived sanitize")
	}
	if res.Groups[0].Stats["ok"].N != 2 {
		t.Errorf("finite metric lost: %+v", res.Groups[0])
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// BenchmarkCampaignPool measures pool + aggregation overhead on trivial
// trials; the smoke CI runs it once per build for the perf trajectory.
func BenchmarkCampaignPool(b *testing.B) {
	m := Matrix{Seeds: Seeds(1, 32), Scenarios: []string{"a", "b"}, Days: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Run("bench", m, 0, simTrial); err != nil {
			b.Fatal(err)
		}
	}
}
