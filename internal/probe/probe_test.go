package probe

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// harness builds one engine over two uneven tiers of running services and
// crashes a deterministic subset, so batch walks see a mix of healthy and
// failing members.
type harness struct {
	sim    *simclock.Sim
	engine *Engine
	tiers  map[string][]*svc.Service
	// onFail journals every OnFail callback as "tier/name@minute" — the
	// observable effect order the sharded path must reproduce exactly.
	journal []string
}

func newHarness(t *testing.T, pool *simclock.Pool, reference bool) *harness {
	t.Helper()
	h := &harness{sim: simclock.New(1), tiers: map[string][]*svc.Service{}}
	h.engine = New(Config{
		Sim:       h.sim,
		Period:    10 * simclock.Minute,
		Slots:     3,
		Reference: reference,
		Pool:      pool,
		OnFail: func(s *svc.Service, res svc.ProbeResult, now simclock.Time) {
			h.journal = append(h.journal, fmt.Sprintf("%s@%d:exit%d", s.Spec.Name, now/simclock.Minute, res.ExitCode))
		},
	})
	mk := func(tier string, n int) {
		var members []*svc.Service
		for i := 0; i < n; i++ {
			host := cluster.NewHost(h.sim, fmt.Sprintf("%s%03d", tier, i), fmt.Sprintf("10.9.%d.%d", len(h.tiers), i),
				cluster.ModelE4500, cluster.RoleDatabase, "test-dc", "UK")
			s, err := svc.New(h.sim, svc.OracleSpec(fmt.Sprintf("ORA-%s-%d", tier, i), 1521), host)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(nil); err != nil {
				t.Fatal(err)
			}
			members = append(members, s)
		}
		h.tiers[tier] = members
		h.engine.AddTier(tier, members)
	}
	mk("web", 17) // uneven sizes: ranges don't divide evenly by slots or shards
	mk("db", 5)
	h.sim.RunUntil(5 * simclock.Minute) // let services reach running
	// Crash a deterministic subset so probes fail on both tiers.
	for i, s := range h.tiers["web"] {
		if i%4 == 1 {
			s.Crash()
		}
	}
	h.tiers["db"][3].Crash()
	h.engine.Start()
	h.sim.RunUntil(65 * simclock.Minute)
	return h
}

type snapshot struct {
	probes, fails int64
	journal       []string
}

func (h *harness) snapshot() snapshot {
	return snapshot{probes: h.engine.Probes(), fails: h.engine.Fails(), journal: h.journal}
}

// TestShardedEngineMatchesReference pins the engine's full observable
// state — probe and failure counters and the OnFail journal order —
// across the reference path, the serial batched path and batched paths
// at 2, 3 and 8 shards.
func TestShardedEngineMatchesReference(t *testing.T) {
	want := newHarness(t, nil, true).snapshot()
	if want.fails == 0 || len(want.journal) == 0 {
		t.Fatal("reference harness saw no failures; harness broken")
	}
	variants := []struct {
		name string
		pool *simclock.Pool
	}{
		{"serial", nil},
		{"1shard", simclock.NewPool(1)},
		{"2shards", simclock.NewPool(2)},
		{"3shards", simclock.NewPool(3)},
		{"8shards", simclock.NewPool(8)},
	}
	for _, v := range variants {
		got := newHarness(t, v.pool, false).snapshot()
		if got.probes != want.probes || got.fails != want.fails {
			t.Errorf("%s: probes/fails = %d/%d, want %d/%d", v.name, got.probes, got.fails, want.probes, want.fails)
		}
		if !reflect.DeepEqual(got.journal, want.journal) {
			t.Errorf("%s: OnFail journal diverged\n got: %v\nwant: %v", v.name, got.journal, want.journal)
		}
	}
}

// TestShardedBatchCount pins the batches diagnostic: one walk per
// (tier, slot, shard) sub-range per tick.
func TestShardedBatchCount(t *testing.T) {
	serial := newHarness(t, nil, false)
	sharded := newHarness(t, simclock.NewPool(2), false)
	if serial.engine.Batches() == 0 {
		t.Fatal("serial harness fired no batches")
	}
	if got, lo := sharded.engine.Batches(), serial.engine.Batches(); got <= lo {
		t.Errorf("2-shard batches = %d, want more sub-walks than serial's %d", got, lo)
	}
}
