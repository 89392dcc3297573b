package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/trace"
)

// TestAgentShardEquivalence is the gate for sharded agent dispatch: with
// agent crons quantized onto a slot grid (AgentSlots — the batching the
// shard pool parallelises), the campaign JSON *and* the recorded trace
// file must be byte-identical at every supported shard count to the
// single-goroutine slotted run. The reference here is Exec{} of the same
// slotted matrix, not ReferenceRunTrial: slotting legitimately moves agent
// wake-up instants, so slotted and unslotted runs are different
// trajectories — but at a fixed slot count the shard count must never leak
// into a single byte. If one moves, the observe/apply split has let a
// shard reorder RNG draws or same-tick effects; fix the engine, do not
// regenerate expectations.
//
// The monitors cell adds the BMC monitors to an agents year: at 8 slots
// of the default 5-minute cron the last slot's agent batch falls on the
// monitors' poll instant, so any shard count that let a batch observe
// before the polls at that instant (the serial order) would show here.
func TestAgentShardEquivalence(t *testing.T) {
	cells := []struct {
		site     string
		mode     string
		monitors bool
	}{
		{"paper", "manual", false},
		{"paper", "agents", false},
		{"paper", "agents", true},
		{"small", "manual", false},
		{"small", "agents", false},
		{"megasite-150", "manual", false},
		{"megasite-150", "agents", false},
	}
	for _, cell := range cells {
		name := fmt.Sprintf("%s-%s", cell.site, cell.mode)
		if cell.monitors {
			name += "-monitors"
		}
		t.Run(name, func(t *testing.T) {
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
			if cell.monitors {
				m.BaselineMonitors = []bool{true}
			}
			ref, wantTrace, err := RunTracedCampaign("agent-shard-equivalence", m,
				Exec{Workers: 1, TraceLevel: trace.LevelDecisions})
			if err != nil {
				t.Fatalf("serial slotted campaign: %v", err)
			}
			wantJSON, err := ref.JSON()
			if err != nil {
				t.Fatalf("serial slotted JSON: %v", err)
			}
			for _, shards := range []int{1, 2, 8} {
				res, gotTrace, err := RunTracedCampaign("agent-shard-equivalence", m,
					Exec{Workers: 2, Shards: shards, TraceLevel: trace.LevelDecisions})
				if err != nil {
					t.Fatalf("sharded campaign (%d shards): %v", shards, err)
				}
				gotJSON, err := res.JSON()
				if err != nil {
					t.Fatalf("sharded JSON (%d shards): %v", shards, err)
				}
				if !bytes.Equal(wantJSON, gotJSON) {
					t.Errorf("campaign JSON diverged (site %s, mode %s, %d shards):\n%s",
						cell.site, cell.mode, shards, firstDiff(wantJSON, gotJSON))
				}
				if !bytes.Equal(wantTrace, gotTrace) {
					t.Errorf("trace file diverged (site %s, mode %s, %d shards):\n%s",
						cell.site, cell.mode, shards, firstDiff(wantTrace, gotTrace))
				}
			}
		})
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

// TestAgentShardReuseRaceStress drives the slotted agent dispatcher at 8
// shards on 8 campaign workers over sync.Pool-recycled sites: 64
// goroutines of concurrent agent observes (plus probe walks) while other
// trials reset and reuse neighbouring sites. The numeric output is pinned
// by TestAgentShardEquivalence; here the race detector's clean bill is the
// point.
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
