package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// fakeSite stands in for an expensive per-cell resource.
type fakeSite struct {
	cell Cell
	seed uint64
}

func poolRunner(builds, resets *atomic.Int64, failReset bool) RunFunc {
	return ReuseRunner[*fakeSite]{
		Build: func(t Trial) (*fakeSite, error) {
			builds.Add(1)
			return &fakeSite{cell: t.Cell, seed: t.Seed}, nil
		},
		Reset: func(s *fakeSite, t Trial) error {
			resets.Add(1)
			if failReset {
				return errors.New("will not rewind")
			}
			if s.cell != t.Cell {
				return fmt.Errorf("pool handed cell %+v a skeleton from cell %+v", t.Cell, s.cell)
			}
			s.seed = t.Seed
			return nil
		},
		Run: func(s *fakeSite, t Trial) (map[string]float64, error) {
			if s.seed != t.Seed || s.cell != t.Cell {
				return nil, fmt.Errorf("trial %d ran on wrong skeleton", t.Index)
			}
			// Deterministic per-coordinate metric: reuse must not leak
			// state between seeds or cells.
			return map[string]float64{"v": float64(t.Seed) * float64(len(s.cell.Site+s.cell.Mode))}, nil
		},
	}.RunFunc()
}

// TestReuseRunnerDeterminism runs the same matrix through fresh-build and
// pooled runners at several worker counts and requires byte-identical
// campaign JSON: pooling must be invisible in the results.
func TestReuseRunnerDeterminism(t *testing.T) {
	m := Matrix{
		Seeds: Seeds(3, 5),
		Modes: []string{"manual", "agents"},
		Sites: []string{"small", "paper"},
	}
	var refB, refR atomic.Int64
	ref, err := Run("pool", m, 1, poolRunner(&refB, &refR, false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		var b, r atomic.Int64
		res, err := Run("pool", m, workers, poolRunner(&b, &r, false))
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d: pooled JSON diverged from reference", workers)
		}
		trials := int64(len(m.Trials()))
		if b.Load()+r.Load() < trials {
			t.Errorf("workers=%d: builds(%d)+resets(%d) < trials(%d): some trial ran on nothing",
				workers, b.Load(), r.Load(), trials)
		}
		if b.Load() > trials {
			t.Errorf("workers=%d: %d builds for %d trials", workers, b.Load(), trials)
		}
	}
	// Sequential reuse must actually reuse. Exact counts are not pinned:
	// sync.Pool may legitimately shed idle skeletons under GC pressure
	// (the race detector makes this routine), costing an extra build —
	// but every trial is exactly one build or one reset, at least one
	// skeleton per cell is built, and some reuse must happen.
	if got := refB.Load() + refR.Load(); got != 20 {
		t.Errorf("sequential pooled run: builds+resets = %d, want 20 (one per trial)", got)
	}
	if refB.Load() < 4 {
		t.Errorf("sequential pooled run built %d skeletons, want >= 4 (one per cell)", refB.Load())
	}
	if refR.Load() == 0 {
		t.Error("sequential pooled run never reused a skeleton")
	}
}

// TestReuseRunnerResetFailureFallsBack: a skeleton that refuses to rewind
// is discarded and the trial runs on a fresh build instead of failing.
func TestReuseRunnerResetFailsOpen(t *testing.T) {
	m := Matrix{Seeds: Seeds(1, 4)}
	var b, r atomic.Int64
	res, err := Run("fallback", m, 1, poolRunner(&b, &r, true))
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) > 0 {
		t.Fatalf("%d trials failed despite the fresh-build fallback; first: %s", len(errs), errs[0].Err)
	}
	if b.Load() != 4 {
		t.Errorf("builds = %d, want 4 (every reset fails, every trial rebuilds)", b.Load())
	}
}
