package simclock

// Wheel is a coalesced cron scheduler: entries that share a (first-fire,
// period) coordinate are grouped into one bucket backed by a single
// repeating heap event that walks its entries in registration order. A site
// with hundreds of agents on the same cron, or a hundred BMC monitors on one
// poll coordinate, keeps one pending event per distinct schedule instead of
// one per entry, and every bucket reuses its Event allocation across ticks.
//
// Semantics match scheduling each entry with Sim.Every individually:
// entries in a bucket fire in FIFO registration order (exactly the
// tie-break the event heap would apply to individually scheduled events),
// a stopped entry never fires again, and a bucket whose entries have all
// stopped cancels its pending event.
//
// One caveat bounds the equivalence: a bucket walks all its entries
// back-to-back, so when a coordinate's registrations are *interleaved*
// with other same-instant work, per-entry tickers would interleave the
// callbacks where the wheel batches them. Registrations that share a
// coordinate must therefore be contiguous for bit-identical replay — which
// they are in practice, since sites draw each agent's phase from a
// continuous distribution (coordinates only ever collide by construction,
// never by chance) and deploy agent by agent, and install their BMC
// monitors, which share one coordinate by construction, back to back.
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

// Pool reports the wheel's shard pool (nil when unsharded).
func (w *Wheel) Pool() *Pool { return w.pool }

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
	live     int // entries not yet stopped
	prepared int // live entries with a prepare phase
	ev       *Event
	walking  bool             // inside fire: defer compaction until the walk ends
	applies  []func(now Time) // reusable per-tick apply buffer (sharded fire)
}

// CronEntry is one registered callback on a wheel.
type CronEntry struct {
	b       *bucket
	fn      func(now Time)
	prepare func(now Time) func(now Time) // non-nil for prepared entries
	label   string
	stopped bool
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
	if period <= 0 {
		panic("simclock: non-positive wheel period for " + label)
	}
	if start < w.sim.Now() {
		panic("simclock: wheel start in the past for " + label)
	}
	key := wheelKey{start: start, period: period}
	b := w.buckets[key]
	if b == nil {
		b = &bucket{wheel: w, key: key}
		b.ev = w.sim.Schedule(start, "cron-wheel", b.fire)
		w.buckets[key] = b
	}
	e := &CronEntry{b: b, fn: fn, label: label}
	b.entries = append(b.entries, e)
	b.live++
	return e
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
	e := w.Add(start, period, label, nil)
	e.prepare = prepare
	e.b.prepared++
	return e
}

// Len reports the number of live (unstopped) entries on the wheel.
func (w *Wheel) Len() int {
	n := 0
	for _, b := range w.buckets {
		n += b.live
	}
	return n
}

// Buckets reports the number of distinct (start, period) buckets with a
// pending event — the coalescing factor Len()/Buckets() is the win over
// per-entry tickers.
func (w *Wheel) Buckets() int { return len(w.buckets) }

// fire walks the bucket's entries in registration order, then re-queues the
// bucket's (reused) event one period on. Entries stopped during the walk —
// including by their own callback — do not fire again. With a multi-shard
// pool and prepared entries present, the walk splits into a parallel
// prepare sweep and a serial apply sweep (fireSharded); the apply order is
// registration order either way.
func (b *bucket) fire(now Time) {
	b.walking = true
	if p := b.wheel.pool; p.Shards() > 1 && b.prepared > 0 {
		b.fireSharded(now, p)
	} else {
		for _, e := range b.entries {
			switch {
			case e.stopped:
			case e.prepare != nil:
				if apply := e.prepare(now); apply != nil {
					apply(now)
				}
			default:
				e.fn(now)
			}
		}
	}
	b.walking = false
	b.compact()
	if b.live == 0 {
		delete(b.wheel.buckets, b.key)
		return
	}
	// The key keeps the original start so entries added later for the same
	// (start, period) coordinate join this bucket rather than forking a
	// drifting duplicate; the next fire is period from now regardless.
	b.wheel.sim.reschedule(b.ev, now+b.key.period)
}

// fireSharded is the pooled tick: shard s prepares the bucket's entries
// at indices s, s+shards, s+2·shards, ... (a strided assignment, so
// callers that register one sub-range per shard per workload get one
// sub-range per worker regardless of how workloads interleave), then the
// barrier merge applies every entry's effects serially in registration
// order. Entries stopped before the tick don't prepare; entries stopped
// during the apply sweep — by an earlier entry's apply — still had their
// prepare run, but their apply is skipped, matching what the serial walk
// would have done (the prepare phase is read-only, so running it for a
// doomed entry is unobservable).
func (b *bucket) fireSharded(now Time, p *Pool) {
	entries := b.entries
	if cap(b.applies) < len(entries) {
		b.applies = make([]func(now Time), len(entries))
	}
	applies := b.applies[:len(entries)]
	shards := p.Shards()
	p.Run(func(shard int) {
		for i := shard; i < len(entries); i += shards {
			e := entries[i]
			if e.stopped || e.prepare == nil {
				applies[i] = nil
				continue
			}
			applies[i] = e.prepare(now)
		}
	})
	for i, e := range entries {
		apply := applies[i]
		applies[i] = nil // don't retain closures across ticks
		switch {
		case e.stopped:
		case e.prepare != nil:
			if apply != nil {
				apply(now)
			}
		default:
			e.fn(now)
		}
	}
}

// compact drops stopped entries, preserving registration order.
func (b *bucket) compact() {
	if b.live == len(b.entries) {
		return
	}
	kept := b.entries[:0]
	for _, e := range b.entries {
		if !e.stopped {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(b.entries); i++ {
		b.entries[i] = nil
	}
	b.entries = kept
}

// Stop deactivates the entry: it never fires again. Stopping the last live
// entry of a bucket cancels the bucket's pending event (mid-walk, the walk
// finishes first). Stop is idempotent and safe to call from the entry's own
// callback.
func (e *CronEntry) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	b := e.b
	b.live--
	if e.prepare != nil {
		b.prepared--
	}
	if b.walking {
		return // fire() compacts and handles an emptied bucket
	}
	if b.live == 0 {
		b.ev.Cancel()
		delete(b.wheel.buckets, b.key)
		return
	}
	b.compact()
}

// Stopped reports whether the entry has been stopped.
func (e *CronEntry) Stopped() bool { return e.stopped }

// Label reports the entry's diagnostic label.
func (e *CronEntry) Label() string { return e.label }

// Period reports the entry's period.
func (e *CronEntry) Period() Time { return e.b.key.period }
