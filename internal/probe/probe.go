// Package probe is the site-wide batched health-probe dispatcher that
// makes datacentre-scale sites tractable. Every service is probed once
// per cycle; instead of one repeating scheduler event per service (tens
// of thousands of heap entries on a megasite), each tier's members are
// split across a handful of evenly-phased batch slots and one coalesced
// wheel entry per (tier, slot) walks its contiguous member range, a linear
// scan of the tier's dense member slice.
//
// The engine consumes no random numbers and mutates no simulation state
// beyond its own counters: a probe reads the service, and a failing probe
// is counted and reported through the OnFail hook; the engine keeps no
// per-member history. Reference mode schedules one independent repeating
// event per member at the same instants — because same-instant events
// fire in FIFO scheduling order, which equals the batch's walk order, the
// two paths are behaviourally identical; the equivalence tests pin
// exactly that. (As with the cron wheel, work
// scheduled by an OnFail callback for the precise instant of a *later*
// probe in the same batch would interleave differently between the two
// paths — unreachable in practice, since repair delays are drawn from
// continuous distributions.)
//
// With a shard pool (Config.Pool) each (tier, slot) range is further
// split into one prepared wheel entry per shard. Inside a tick the
// shards walk their sub-ranges concurrently — Service.Probe is a pure
// read, and each sub-range buffers its failures in a list of its own; at
// the tick barrier the wheel replays each sub-range's counter updates
// and OnFail callbacks serially in registration order, which is exactly
// the serial walk order. The observable effect sequence (ledger writes,
// repair scheduling, random-stream consumption) is therefore identical
// at any shard count, and the equivalence tests pin that too.
package probe

import (
	"fmt"

	"repro/internal/simclock"
	"repro/internal/svc"
)

// Config parameterises an Engine.
type Config struct {
	Sim *simclock.Sim
	// Period is the probe cycle length; every member is probed once per
	// period. Must be positive.
	Period simclock.Time
	// Slots is the number of batch slots each tier's members are spread
	// across. Must be positive; slots beyond a tier's member count walk
	// nothing and are skipped.
	Slots int
	// Reference disables coalescing: one independent repeating event per
	// member service, the semantics baseline the batched path is
	// equivalence-tested against.
	Reference bool
	// Pool shards each (tier, slot) batch walk across its workers inside
	// a tick window (nil or 1-shard: every walk stays on the event-loop
	// goroutine). Ignored in reference mode.
	Pool *simclock.Pool
	// OnFail is invoked for every failing probe (nil: failures are only
	// counted).
	OnFail func(s *svc.Service, res svc.ProbeResult, now simclock.Time)
}

// tierSched is one tier's probe schedule: a dense member slice in
// deployment order.
type tierSched struct {
	name    string
	members []*svc.Service
}

// Engine owns the probe schedules for one site. Zero value is unusable;
// use New.
type Engine struct {
	cfg     Config
	tiers   []*tierSched
	wheel   *simclock.Wheel
	started bool

	probes  int64 // probes issued
	fails   int64 // failing probes
	batches int64 // batch walks fired (batched path only)
}

// New returns an engine with no tiers registered.
func New(cfg Config) *Engine {
	if cfg.Sim == nil {
		panic("probe: Config.Sim is nil")
	}
	if cfg.Period <= 0 {
		panic(fmt.Sprintf("probe: non-positive period %v", cfg.Period))
	}
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("probe: non-positive slot count %d", cfg.Slots))
	}
	return &Engine{cfg: cfg}
}

// AddTier registers a tier's member services in deployment order. The
// slice is retained (not copied); callers hand over ownership. Adding
// after Start panics — schedules are laid out once.
func (e *Engine) AddTier(name string, members []*svc.Service) {
	if e.started {
		panic("probe: AddTier after Start")
	}
	e.tiers = append(e.tiers, &tierSched{name: name, members: members})
}

// Start lays out the schedules: tier t's slot s first fires at
// now + (s+1)·Period/Slots and then every Period, walking the slot's
// contiguous member range — split into one prepared wheel entry per pool
// shard, so a multi-shard pool probes the sub-ranges concurrently and
// merges at the tick barrier. Slot phases are deterministic functions of
// the configuration — no randomness — so the schedule replays
// identically.
func (e *Engine) Start() {
	if e.started {
		panic("probe: Start called twice")
	}
	e.started = true
	now := e.cfg.Sim.Now()
	shards := e.cfg.Pool.Shards()
	for _, t := range e.tiers {
		for s := 0; s < e.cfg.Slots; s++ {
			lo := s * len(t.members) / e.cfg.Slots
			hi := (s + 1) * len(t.members) / e.cfg.Slots
			if lo == hi {
				continue
			}
			start := now + simclock.Time(s+1)*e.cfg.Period/simclock.Time(e.cfg.Slots)
			if e.cfg.Reference {
				for i := lo; i < hi; i++ {
					t, i := t, i
					e.cfg.Sim.Every(start, e.cfg.Period,
						"probe:"+t.members[i].Spec.Name,
						func(nw simclock.Time) { e.probeOne(t, i, nw) })
				}
				continue
			}
			if e.wheel == nil {
				e.wheel = simclock.NewWheel(e.cfg.Sim)
				e.wheel.SetPool(e.cfg.Pool)
			}
			// Registration is tier-major, shard-minor: each slot's bucket
			// holds one sub-range entry per (tier, shard), so the wheel's
			// strided shard assignment hands every worker one sub-range
			// per tier, and the barrier's registration-order apply equals
			// the serial walk order.
			for sh := 0; sh < shards; sh++ {
				off, end := simclock.Span(sh, shards, hi-lo)
				slo, shi := lo+off, lo+end
				if slo == shi {
					continue
				}
				r := &shardRange{e: e, t: t, lo: slo, hi: shi}
				r.apply = r.merge
				e.wheel.AddPrepared(start, e.cfg.Period,
					fmt.Sprintf("probe:%s[%d:%d]", t.name, slo, shi),
					r.prepare)
			}
		}
	}
}

// shardRange is one shard's contiguous slice of a (tier, slot) batch. Its
// prepare walks the slice — pure service reads — buffering failures; its
// merge publishes counters and fires OnFail serially at the tick barrier.
// The apply closure is allocated once at Start so a tick allocates
// nothing.
type shardRange struct {
	e      *Engine
	t      *tierSched
	lo, hi int
	fails  []failedProbe           // this tick's failures, reused across ticks
	apply  func(now simclock.Time) // == r.merge, preallocated
}

// failedProbe records one failing probe for the barrier merge.
type failedProbe struct {
	i   int
	res svc.ProbeResult
}

// prepare is the concurrent phase: probe every member in [lo, hi).
func (r *shardRange) prepare(now simclock.Time) func(now simclock.Time) {
	r.fails = r.fails[:0]
	t := r.t
	for i := r.lo; i < r.hi; i++ {
		if res := t.members[i].Probe(); !res.OK() {
			r.fails = append(r.fails, failedProbe{i: i, res: res})
		}
	}
	return r.apply
}

// merge is the serial phase: publish the walk's counters and report its
// failures in member order.
func (r *shardRange) merge(now simclock.Time) {
	e := r.e
	e.batches++
	e.probes += int64(r.hi - r.lo)
	e.fails += int64(len(r.fails))
	if e.cfg.OnFail != nil {
		for _, f := range r.fails {
			e.cfg.OnFail(r.t.members[f.i], f.res, now)
		}
	}
}

// probeOne issues one probe and counts it (reference path).
func (e *Engine) probeOne(t *tierSched, i int, now simclock.Time) {
	res := t.members[i].Probe()
	e.probes++
	if res.OK() {
		return
	}
	e.fails++
	if e.cfg.OnFail != nil {
		e.cfg.OnFail(t.members[i], res, now)
	}
}

// Reset returns the engine to its pre-Start state for site reuse: the
// simulator's Reset has already dropped the scheduled events, so only the
// counters are cleared. Tier membership is retained — pooled site reuse
// resets services in place.
func (e *Engine) Reset() {
	e.started = false
	e.wheel = nil
	e.probes, e.fails, e.batches = 0, 0, 0
}

// Probes reports the probes issued since Start (or Reset).
func (e *Engine) Probes() int64 { return e.probes }

// Fails reports the failing probes since Start (or Reset).
func (e *Engine) Fails() int64 { return e.fails }

// Batches reports the coalesced batch walks fired — one per (tier, slot,
// shard) sub-range per tick; 0 in reference mode.
func (e *Engine) Batches() int64 { return e.batches }
