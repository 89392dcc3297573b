package campaign

import "sync"

// ReuseRunner builds a RunFunc that recycles one expensive per-cell
// resource (typically a fully built simulation site) across the seeds of a
// matrix cell instead of rebuilding it for every trial.
//
// Build constructs the resource for a trial's cell; Reset rewinds a
// previously used resource to run another trial of the same cell; Run
// executes one trial on it. The contract that makes reuse safe is
// Reset(s, t) followed by Run == Build(t) followed by Run, byte for byte —
// the site-level equivalence tests gate exactly that.
//
// Pools are per cell and sync.Pool-backed, keyed by the trial's Cell:
// trials of one cell differ only in their seed, which is exactly the
// condition under which one skeleton can be reseeded and reused between
// them. Under a parallel campaign each worker effectively keeps one warm
// skeleton per cell it is working on, and idle skeletons are
// garbage-collectable between campaigns. A resource whose Run returns an
// error (or panics) is discarded, never pooled, so a poisoned skeleton
// cannot leak into later trials; a Reset error falls back to a fresh
// Build.
type ReuseRunner[S any] struct {
	Build func(Trial) (S, error)
	Reset func(S, Trial) error
	Run   func(S, Trial) (map[string]float64, error)
}

// RunFunc returns the pooled campaign.RunFunc. It is safe for concurrent
// use by the campaign worker pool.
func (r ReuseRunner[S]) RunFunc() RunFunc {
	var mu sync.Mutex
	pools := make(map[Cell]*sync.Pool)
	poolFor := func(key Cell) *sync.Pool {
		mu.Lock()
		defer mu.Unlock()
		p := pools[key]
		if p == nil {
			p = &sync.Pool{}
			pools[key] = p
		}
		return p
	}
	return func(t Trial) (map[string]float64, error) {
		pool := poolFor(t.Cell)
		var s S
		if v := pool.Get(); v != nil {
			s = v.(S)
			if err := r.Reset(s, t); err != nil {
				// A skeleton that will not rewind is dropped; the trial
				// still runs, on a fresh build.
				fresh, berr := r.Build(t)
				if berr != nil {
					return nil, berr
				}
				s = fresh
			}
		} else {
			fresh, err := r.Build(t)
			if err != nil {
				return nil, err
			}
			s = fresh
		}
		vals, err := r.Run(s, t)
		if err != nil {
			return nil, err
		}
		pool.Put(s)
		return vals, nil
	}
}
