package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/trace"
)

// TestShardEquivalence is the gate for intra-trial sharding: on the
// paper-shaped sites and the mid-size megasite member, the campaign JSON
// from the sharded engine at every supported shard count must be
// byte-identical to the single-goroutine reference path, and the recorded
// trace file identical to the unsharded one. Shards are an execution
// knob, not a matrix axis — if any byte moves, the shard merge has leaked
// scheduling or RNG order into a reproduced number; fix the engine, do not
// regenerate expectations.
func TestShardEquivalence(t *testing.T) {
	cells := []struct {
		site string
		mode string
	}{
		{"paper", "manual"},
		{"small", "manual"},
		{"small", "agents"},
		{"megasite-150", "manual"},
		{"megasite-150", "agents"},
	}
	for _, cell := range cells {
		t.Run(fmt.Sprintf("%s-%s", cell.site, cell.mode), func(t *testing.T) {
			t.Parallel()
			if testing.Short() && cell.site == "megasite-150" {
				t.Skip("megasite reference path is the long cell; run without -short for the full gate")
			}
			checkShardEquivalence(t, campaign.Matrix{
				Seeds:     campaign.Seeds(7, 2),
				Scenarios: []string{"year"},
				Sites:     []string{cell.site},
				Modes:     []string{cell.mode},
				Days:      1,
			})
		})
	}
}

// TestAgentShardEquivalence is the same gate with agent crons quantized
// onto 8 slots (AgentSlots), a model knob that moves wake-up instants: a
// slotted run is a different trajectory from an unslotted one, but at a
// fixed slot count the shard count must still not leak into a single byte.
// A slot's agents run one after another on the trial's own goroutine, so
// only the probe walks shard here; the cells pin that slotting and
// sharding compose.
func TestAgentShardEquivalence(t *testing.T) {
	cells := []struct {
		site string
		mode string
	}{
		{"paper", "manual"},
		{"paper", "agents"},
		{"small", "manual"},
		{"small", "agents"},
		{"megasite-150", "manual"},
		{"megasite-150", "agents"},
	}
	for _, cell := range cells {
		t.Run(fmt.Sprintf("%s-%s", cell.site, cell.mode), func(t *testing.T) {
			t.Parallel()
			if testing.Short() && cell.site == "megasite-150" {
				t.Skip("megasite cells are the long ones; run without -short for the full gate")
			}
			m := campaign.Matrix{
				Seeds:      campaign.Seeds(7, 2),
				Scenarios:  []string{"year"},
				Sites:      []string{cell.site},
				Modes:      []string{cell.mode},
				Days:       1,
				AgentSlots: 8,
			}
			checkShardEquivalence(t, m)
		})
	}
}

// checkShardEquivalence runs m on the single-goroutine reference path and
// then traced on the pooled engine at 1, 2 and 8 shards: every campaign
// JSON must equal the reference and every trace file the 1-shard one.
func checkShardEquivalence(t *testing.T, m campaign.Matrix) {
	t.Helper()
	ref, err := campaign.Run("shard-equivalence", m, 1, ReferenceRunTrial)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if errs := ref.Errs(); len(errs) > 0 {
		t.Fatalf("reference campaign had %d failed trials; first: %s", len(errs), errs[0].Err)
	}
	want, err := ref.JSON()
	if err != nil {
		t.Fatalf("reference JSON: %v", err)
	}
	var wantTrace []byte
	for _, shards := range []int{1, 2, 8} {
		res, gotTrace, err := RunTracedCampaign("shard-equivalence", m,
			Exec{Workers: 2, Shards: shards, TraceLevel: trace.LevelDecisions})
		if err != nil {
			t.Fatalf("sharded campaign (%d shards): %v", shards, err)
		}
		got, err := res.JSON()
		if err != nil {
			t.Fatalf("sharded JSON (%d shards): %v", shards, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("sharded engine diverged from reference (%d shards):\n%s",
				shards, firstDiff(want, got))
		}
		if shards == 1 {
			wantTrace = gotTrace // one shard is the single-goroutine engine
		} else if !bytes.Equal(wantTrace, gotTrace) {
			t.Errorf("trace file diverged (%d shards):\n%s", shards, firstDiff(wantTrace, gotTrace))
		}
	}
}

// TestShardReuseRaceStress drives the pooled ReuseRunner at 8 shards on 8
// campaign workers — 64 goroutines of probe walks over sync.Pool-recycled
// sites. Its job is to give the race detector surface area: shard workers
// write disjoint SoA ranges of the same arrays while other trials reset
// and reuse neighbouring sites. The numeric output is already pinned by
// TestShardEquivalence; here only clean completion matters.
func TestShardReuseRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed megasite stress; run without -short")
	}
	t.Parallel()
	m := campaign.Matrix{
		Seeds:     campaign.Seeds(11, 8),
		Scenarios: []string{"year"},
		Sites:     []string{"megasite-150"},
		Modes:     []string{"manual", "agents"},
		Days:      1,
	}
	res, err := campaign.Run("shard-stress", m, 8, newPooledRunFunc(Exec{Shards: 8}, nil))
	if err != nil {
		t.Fatalf("stress campaign: %v", err)
	}
	if errs := res.Errs(); len(errs) > 0 {
		t.Fatalf("stress campaign had %d failed trials; first: %s", len(errs), errs[0].Err)
	}
	if want := 8 * 2; len(res.Trials) != want {
		t.Fatalf("stress campaign ran %d trials, want %d", len(res.Trials), want)
	}
}

// TestAgentShardReuseRaceStress is TestShardReuseRaceStress with agent
// crons on 8 slots: each trial's slotted cron wheel is built at deploy and
// dropped at Reset while 8 shards walk probes on the same recycled sites.
// The numeric output is pinned by TestAgentShardEquivalence; here the race
// detector's clean bill is the point.
func TestAgentShardReuseRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed megasite stress; run without -short")
	}
	t.Parallel()
	m := campaign.Matrix{
		Seeds:      campaign.Seeds(11, 8),
		Scenarios:  []string{"year"},
		Sites:      []string{"megasite-150"},
		Modes:      []string{"manual", "agents"},
		Days:       1,
		AgentSlots: 8,
	}
	res, err := campaign.Run("agent-shard-stress", m, 8, newPooledRunFunc(Exec{Shards: 8}, nil))
	if err != nil {
		t.Fatalf("stress campaign: %v", err)
	}
	if errs := res.Errs(); len(errs) > 0 {
		t.Fatalf("stress campaign had %d failed trials; first: %s", len(errs), errs[0].Err)
	}
	if want := 8 * 2; len(res.Trials) != want {
		t.Fatalf("stress campaign ran %d trials, want %d", len(res.Trials), want)
	}
}

// TestAgentSlotsChangeTrajectory documents the model-knob contract: a
// slotted run is a different trajectory from an unslotted one (wake-up
// instants move onto the grid), and the slot count is recorded in the
// campaign JSON so the two can never be mistaken for one another: in the
// matrix, in every trial and, as a Cell coordinate, in every group.
func TestAgentSlotsChangeTrajectory(t *testing.T) {
	t.Parallel()
	m := campaign.Matrix{
		Seeds:     campaign.Seeds(7, 1),
		Scenarios: []string{"year"},
		Sites:     []string{"paper"},
		Modes:     []string{"agents"},
		Days:      1,
	}
	plain, err := campaign.Run("agent-slots-off", m, 1, NewPooledRunFunc())
	if err != nil {
		t.Fatalf("unslotted campaign: %v", err)
	}
	sm := m
	sm.AgentSlots = 8
	slotted, err := campaign.Run("agent-slots-off", sm, 1, NewPooledRunFunc())
	if err != nil {
		t.Fatalf("slotted campaign: %v", err)
	}
	for _, res := range []*campaign.Result{plain, slotted} {
		if errs := res.Errs(); len(errs) > 0 {
			t.Fatalf("campaign had %d failed trials; first: %s", len(errs), errs[0].Err)
		}
	}
	a, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := slotted.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(a, []byte(`"agent_slots"`)) {
		t.Error("unslotted campaign JSON should omit agent_slots")
	}
	if !bytes.Contains(b, []byte(`"agent_slots": 8`)) {
		t.Error("slotted campaign JSON should record agent_slots: 8")
	}
	groupSlots := func(js []byte) []any {
		var rec struct {
			Groups []map[string]any `json:"groups"`
		}
		if err := json.Unmarshal(js, &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Groups) == 0 {
			t.Fatal("campaign JSON holds no group records")
		}
		out := make([]any, len(rec.Groups))
		for i, g := range rec.Groups {
			out[i] = g["agent_slots"]
		}
		return out
	}
	for i, v := range groupSlots(b) {
		if v != float64(8) {
			t.Errorf("slotted group %d records agent_slots %v, want 8", i, v)
		}
	}
	for i, v := range groupSlots(a) {
		if v != nil {
			t.Errorf("unslotted group %d records agent_slots %v, want none", i, v)
		}
	}
}
