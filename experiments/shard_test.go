package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/campaign"
)

// TestShardEquivalence is the gate for intra-trial sharding: on the
// paper-shaped sites and the mid-size megasite member, the campaign JSON
// from the sharded engine at every supported shard count must be
// byte-identical to the single-goroutine reference path. Shards are an
// execution knob, not a matrix axis — if any byte moves, the shard merge
// has leaked scheduling or RNG order into a reproduced number; fix the
// engine, do not regenerate expectations.
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
			m := campaign.Matrix{
				Seeds:     campaign.Seeds(7, 2),
				Scenarios: []string{"year"},
				Sites:     []string{cell.site},
				Modes:     []string{cell.mode},
				Days:      1,
			}
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
			for _, shards := range []int{1, 2, 8} {
				res, err := campaign.Run("shard-equivalence", m, 2, newPooledRunFunc(Exec{Shards: shards}, nil))
				if err != nil {
					t.Fatalf("sharded campaign (%d shards): %v", shards, err)
				}
				if errs := res.Errs(); len(errs) > 0 {
					t.Fatalf("sharded campaign (%d shards) had %d failed trials; first: %s",
						shards, len(errs), errs[0].Err)
				}
				got, err := res.JSON()
				if err != nil {
					t.Fatalf("sharded JSON (%d shards): %v", shards, err)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("sharded engine diverged from reference (site %s, mode %s, %d shards):\n%s",
						cell.site, cell.mode, shards, firstDiff(want, got))
				}
			}
		})
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
