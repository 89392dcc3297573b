package simclock

// Wheel is a coalesced cron scheduler: entries that share a (first-fire,
// period) coordinate are grouped into one bucket backed by a single
// repeating event that walks its entries in registration order; its first
// fire sits on the heap and its re-arms in the lane of its period. A site
// with a hundred BMC monitors on one poll coordinate, or a slot's worth of
// agent crons, keeps one pending event per distinct schedule instead of
// one per entry, and every bucket reuses its Event allocation across ticks.
//
// Semantics match scheduling each entry with Sim.Every individually:
// entries in a bucket fire in FIFO registration order (exactly the
// tie-break the event heap would apply to individually scheduled events).
// Entries are never removed: an entry fires until its simulation ends,
// and Sim.Reset drops every bucket's event with the rest of the queue.
//
// One caveat bounds the equivalence: a bucket walks all its entries
// back-to-back, so when a coordinate's registrations are *interleaved*
// with other same-instant work, per-entry tickers would interleave the
// callbacks where the wheel batches them. Registrations that share a
// coordinate must therefore be contiguous for bit-identical replay — which
// they are in practice: sites install their BMC monitors, which share one
// coordinate by construction, back to back.
// Likewise, an event a callback schedules for exactly its bucket's next
// tick runs before the whole bucket there, where per-entry tickers would
// run it after the entries registered before that callback's own; BMC
// polls schedule nothing. The property tests pin exactly this contract.
//
// # Sharded ticks
//
// A wheel with a shard Pool (SetPool) additionally supports *prepared*
// entries (AddPrepared): callbacks split into a read-only prepare phase
// and a mutating apply phase. When a bucket with prepared entries fires,
// the prepares run concurrently across the pool's shards — each shard
// owns a strided subset of the bucket's entries — and at the barrier the
// applies run on the event-loop goroutine in registration order. Because
// prepares are side-effect-free (by contract: they may write only state
// the entry itself owns) and applies replay in exactly the order the
// serial walk would use, the observable event sequence — and therefore
// campaign JSON — is byte-identical at any shard count. Plain Add
// entries in the same bucket keep their registration slot in the apply
// order and run entirely in the serial phase, so every prepare runs
// before them: a plain entry whose effects a prepare reads belongs on a
// wheel without the pool.
type Wheel struct {
	sim     *Sim
	buckets map[wheelKey]*bucket
	pool    *Pool
}

// SetPool attaches a shard pool: buckets holding prepared entries fire
// their prepare phases across the pool's shards. A nil pool (the
// default) and a 1-shard pool both keep every walk on the event-loop
// goroutine. SetPool must be called before the first tick fires.
func (w *Wheel) SetPool(p *Pool) { w.pool = p }

// Sim reports the simulator the wheel schedules on.
func (w *Wheel) Sim() *Sim { return w.sim }

type wheelKey struct {
	start  Time // absolute first-fire time
	period Time
}

// bucket is one (start, period) coordinate's shared repeating event.
type bucket struct {
	wheel    *Wheel
	key      wheelKey
	entries  []*CronEntry
	prepared int // entries with a prepare phase
	ev       *Event
	lane     int              // the lane of the bucket's period, which its re-arms ride
	applies  []func(now Time) // reusable per-tick apply buffer (sharded fire)
}

// CronEntry is one registered callback on a wheel.
type CronEntry struct {
	fn      func(now Time)
	prepare func(now Time) func(now Time) // non-nil for prepared entries
	label   string
}

// NewWheel returns an empty wheel scheduling on sim.
func NewWheel(sim *Sim) *Wheel {
	return &Wheel{sim: sim, buckets: make(map[wheelKey]*bucket)}
}

// Add registers fn to run first at absolute time start and then every
// period, sharing a bucket with every other entry on the same (start,
// period) coordinate. A non-positive period panics, as does a start in the
// past — the same contract as Sim.Every. The label is diagnostic.
func (w *Wheel) Add(start, period Time, label string, fn func(now Time)) *CronEntry {
	return w.add(start, period, &CronEntry{fn: fn, label: label})
}

// AddPrepared registers a two-phase entry on the same (start, period)
// coordinates as Add. Each tick, prepare runs first — concurrently with
// other prepared entries when a multi-shard pool is attached, so it must
// only read simulation state and write state the entry itself owns (no
// scheduling, no random draws, no shared mutation) — and returns the
// apply step, which then runs on the event-loop goroutine in the
// bucket's registration order with full mutation rights. A nil apply
// means the entry has nothing to merge this tick. Without a pool the
// two phases run back-to-back inline, which is also the semantic
// reference the sharded path is equivalence-tested against.
func (w *Wheel) AddPrepared(start, period Time, label string, prepare func(now Time) func(now Time)) *CronEntry {
	if prepare == nil {
		panic("simclock: nil prepare for " + label)
	}
	return w.add(start, period, &CronEntry{prepare: prepare, label: label})
}

// add appends e to the bucket of its (start, period) coordinate, creating
// the bucket and scheduling its first fire if the coordinate is new.
func (w *Wheel) add(start, period Time, e *CronEntry) *CronEntry {
	if period <= 0 {
		panic("simclock: non-positive wheel period for " + e.label)
	}
	if start < w.sim.Now() {
		panic("simclock: wheel start in the past for " + e.label)
	}
	key := wheelKey{start: start, period: period}
	b := w.buckets[key]
	if b == nil {
		b = &bucket{wheel: w, key: key, lane: w.sim.laneFor(period)}
		b.ev = w.sim.Schedule(start, "cron-wheel", b.fire)
		w.buckets[key] = b
	}
	b.entries = append(b.entries, e)
	if e.prepare != nil {
		b.prepared++
	}
	return e
}

// Len reports the number of entries on the wheel.
func (w *Wheel) Len() int {
	n := 0
	for _, b := range w.buckets {
		n += len(b.entries)
	}
	return n
}

// Buckets reports the number of distinct (start, period) buckets, each
// with one pending event — the coalescing factor Len()/Buckets() is the
// win over per-entry tickers.
func (w *Wheel) Buckets() int { return len(w.buckets) }

// fire walks the bucket's entries in registration order, then re-queues the
// bucket's (reused) event one period on. With a multi-shard pool and
// prepared entries present, the walk splits into a parallel prepare sweep
// and a serial apply sweep (fireSharded); the apply order is registration
// order either way.
func (b *bucket) fire(now Time) {
	if p := b.wheel.pool; p.Shards() > 1 && b.prepared > 0 {
		b.fireSharded(now, p)
	} else {
		for _, e := range b.entries {
			if e.prepare == nil {
				e.fn(now)
			} else if apply := e.prepare(now); apply != nil {
				apply(now)
			}
		}
	}
	// The key keeps the original start so entries added later for the same
	// (start, period) coordinate join this bucket rather than forking a
	// drifting duplicate; the next fire is period from now regardless, in
	// the lane of the period.
	b.wheel.sim.rearm(b.ev, b.lane)
}

// fireSharded is the pooled tick: shard s prepares the bucket's entries
// at indices s, s+shards, s+2·shards, ... (a strided assignment, so
// callers that register one sub-range per shard per workload get one
// sub-range per worker regardless of how workloads interleave), then the
// barrier merge applies every entry's effects serially in registration
// order.
func (b *bucket) fireSharded(now Time, p *Pool) {
	entries := b.entries
	if cap(b.applies) < len(entries) {
		b.applies = make([]func(now Time), len(entries))
	}
	applies := b.applies[:len(entries)]
	shards := p.Shards()
	p.Run(func(shard int) {
		for i := shard; i < len(entries); i += shards {
			if e := entries[i]; e.prepare != nil {
				applies[i] = e.prepare(now)
			}
		}
	})
	for i, e := range entries {
		apply := applies[i]
		applies[i] = nil // don't retain closures across ticks
		if e.prepare == nil {
			e.fn(now)
		} else if apply != nil {
			apply(now)
		}
	}
}

// Label reports the entry's diagnostic label.
func (e *CronEntry) Label() string { return e.label }
