package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/campaign"
)

// TestWheelResetEquivalence is the optimisation gate for the fast-path
// event engine: for every canned site topology and both operation modes,
// the campaign JSON produced by the pooled path — Site.Reset reuse, with
// the BMC polls coalesced on the cron wheel — must be byte-identical to
// ReferenceRunTrial, which builds a fresh site per trial. Both paths wake
// every agent on its own heap ticker, the one unslotted agent dispatch.
// Three seeds per cell so the pooled path exercises the
// Reset → Run → Reset chain, and the pooled run is repeated with one and
// eight workers so reuse cannot depend on scheduling.
//
// If this test fails, the engine optimisations have drifted a reproduced
// number; fix the engine, do not regenerate expectations.
func TestWheelResetEquivalence(t *testing.T) {
	for _, site := range []string{"paper", "small", "webfarm", "computefarm"} {
		for _, mode := range []string{"manual", "agents"} {
			t.Run(fmt.Sprintf("%s-%s", site, mode), func(t *testing.T) {
				t.Parallel()
				if testing.Short() && site == "paper" {
					t.Skip("paper site × 3 seeds × 3 runs is the long cell; run without -short for the full gate")
				}
				m := campaign.Matrix{
					Seeds:     campaign.Seeds(7, 3),
					Scenarios: []string{"year"},
					Sites:     []string{site},
					Modes:     []string{mode},
					Days:      1,
				}
				ref, err := campaign.Run("equivalence", m, 1, ReferenceRunTrial)
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
				for _, workers := range []int{1, 8} {
					res, err := campaign.Run("equivalence", m, workers, NewPooledRunFunc())
					if err != nil {
						t.Fatalf("pooled campaign (%d workers): %v", workers, err)
					}
					got, err := res.JSON()
					if err != nil {
						t.Fatalf("pooled JSON (%d workers): %v", workers, err)
					}
					if !bytes.Equal(want, got) {
						t.Errorf("pooled Reset path diverged from the reference path (site %s, mode %s, %d workers):\n%s",
							site, mode, workers, firstDiff(want, got))
					}
				}
			})
		}
	}
}

// firstDiff renders the first divergent region of two JSON documents.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	at := n
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			at = i
			break
		}
	}
	if at == n && len(a) == len(b) {
		return "(equal)"
	}
	lo := max(at-120, 0)
	ahi := min(at+120, len(a))
	bhi := min(at+120, len(b))
	return fmt.Sprintf("first divergence at byte %d\nseed:  ...%s...\nwheel: ...%s...", at, a[lo:ahi], b[lo:bhi])
}
