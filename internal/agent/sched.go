package agent

import (
	"fmt"

	"repro/internal/simclock"
)

// Scheduler coalesces agent crons into per-(phase, period) prepared batch
// walks, mirroring internal/probe's engine: agents whose wake-ups land on
// the same slot share one repeating wheel bucket, split into one contiguous
// sub-range per pool shard. Each sub-range registers a prepared entry whose
// prepare runs the members' read-only Observe concurrently across shards and
// whose apply replays the members' mutating Apply serially at the tick
// barrier, in registration (= deployment) order.
//
// The trajectory is byte-identical at every shard count: with no pool (or
// one shard) a group registers a single sub-range spanning all members, so
// its one prepare observes every member before its apply mutates anything —
// the same observe-all-then-apply-all semantics the sharded barrier
// enforces. What slotting does change, relative to the per-agent dispatch,
// is the wake-up instants themselves: raw continuous phases quantize onto
// the slot grid (see QuantizePhase), so slotted runs are a different —
// equally valid — trajectory from unslotted ones. Hence slotting is an
// opt-in model knob (Options.AgentSlots) recorded in campaign JSON, not an
// execution knob like shard count.
type Scheduler struct {
	sim     *simclock.Sim
	wheel   *simclock.Wheel
	slots   int
	groups  map[schedKey]*schedGroup
	order   []*schedGroup
	started bool
}

type schedKey struct {
	phase, period simclock.Time
}

type schedGroup struct {
	key     schedKey
	members []*Agent
}

// NewScheduler builds a scheduler with the given slot count per cron
// period, dispatching onto a wheel of its own that fans prepares across
// pool (nil: every batch walks on the event-loop goroutine).
func NewScheduler(sim *simclock.Sim, pool *simclock.Pool, slots int) *Scheduler {
	if sim == nil {
		panic("agent: NewScheduler needs a sim")
	}
	if slots <= 0 {
		panic(fmt.Sprintf("agent: NewScheduler slots must be positive, got %d", slots))
	}
	w := simclock.NewWheel(sim)
	w.SetPool(pool)
	return &Scheduler{sim: sim, wheel: w, slots: slots, groups: map[schedKey]*schedGroup{}}
}

// QuantizePhase maps a continuous phase draw in [0, period) onto the slot
// grid: with slot width w = period/slots, the draw's slot s = draw/w fires
// at the slot's end (s+1)·w, mirroring the probe engine's layout (first
// fire strictly after now, at most one period out). Each agent still burns
// exactly one phase draw from the deployment RNG stream, so adding slots
// never shifts any other draw. Degenerate grids — a period shorter than the
// slot count — leave the draw unquantized, which costs nothing but
// batching.
func QuantizePhase(draw, period simclock.Time, slots int) simclock.Time {
	w := period / simclock.Time(slots)
	if w <= 0 {
		return draw
	}
	s := draw / w
	if s >= simclock.Time(slots) {
		s = simclock.Time(slots) - 1
	}
	return (s + 1) * w
}

// Add enrolls an agent whose cron would fire at now+phase and every period
// thereafter; the phase is quantized onto the slot grid. Must precede Start.
func (s *Scheduler) Add(a *Agent, phase, period simclock.Time) {
	if s.started {
		panic("agent: Scheduler.Add after Start")
	}
	key := schedKey{phase: QuantizePhase(phase, period, s.slots), period: period}
	g := s.groups[key]
	if g == nil {
		g = &schedGroup{key: key}
		s.groups[key] = g
		s.order = append(s.order, g)
	}
	g.members = append(g.members, a)
}

// Start registers the wheel entries. Every group lays out one prepared
// sub-range per pool shard, registered shard-minor, so the wheel's strided
// prepare assignment (entry i → shard i%shards) hands each worker exactly
// its own sub-range and the barrier's registration-order apply equals
// ascending member order. Empty sub-ranges (groups smaller than the shard
// count) are skipped.
func (s *Scheduler) Start() {
	if s.started {
		panic("agent: Scheduler.Start called twice")
	}
	s.started = true
	now := s.sim.Now()
	shards := s.wheel.Pool().Shards()
	for _, g := range s.order {
		for sh := 0; sh < shards; sh++ {
			lo, hi := simclock.Span(sh, shards, len(g.members))
			if lo == hi {
				continue
			}
			b := &schedBatch{sim: s.sim, members: g.members[lo:hi]}
			b.apply = b.applyAll
			s.wheel.AddPrepared(now+g.key.phase, g.key.period,
				fmt.Sprintf("cron-batch:%v/%v[%d:%d]", g.key.phase, g.key.period, lo, hi),
				b.prepare)
		}
	}
}

// schedBatch is one contiguous member sub-range of one cron group — the
// unit of work a shard prepares. The apply closure is preallocated so the
// hot loop returns the same func value every period, like probe's
// shardRange.
type schedBatch struct {
	sim     *simclock.Sim
	members []*Agent
	apply   func(now simclock.Time)
}

func (b *schedBatch) prepare(now simclock.Time) func(simclock.Time) {
	for _, a := range b.members {
		a.Observe(now)
	}
	return b.apply
}

func (b *schedBatch) applyAll(now simclock.Time) {
	for _, a := range b.members {
		a.Apply(b.sim, now)
	}
}
