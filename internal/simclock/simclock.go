// Package simclock provides a deterministic discrete-event simulation
// engine: a virtual clock, an event queue ordered by firing time, repeating
// timers, and a seeded random source. Every stochastic component of the
// cluster simulation draws from a Rand owned by the Sim so that whole
// scenarios replay bit-for-bit from a seed.
//
// Events fire in (time, sequence) order, where the sequence number is the
// order of scheduling. The pending set is a heap plus one FIFO lane per
// constant delay: an event queued at now + d for a delay d that its caller
// always uses — a ticker or wheel bucket re-arming one period on, or a
// PostFixed — joins the lane of d. The clock never runs backwards and
// sequence numbers only grow, so each lane is already in (time, sequence)
// order, and a pop takes the earliest of the heap's top and the lanes'
// heads. The lanes change the cost of a pop, never the firing order.
package simclock

import (
	"fmt"
	"strconv"
	"time"
)

// Time is simulated time measured as a duration since the simulation epoch.
type Time time.Duration

// Common simulated durations.
const (
	Second = Time(time.Second)
	Minute = Time(time.Minute)
	Hour   = Time(time.Hour)
	Day    = 24 * Hour
	Year   = 365 * Day
)

func (t Time) String() string {
	d := time.Duration(t)
	days := d / (24 * time.Hour)
	rem := d % (24 * time.Hour)
	if days > 0 {
		return string(t.AppendString(nil))
	}
	return rem.String()
}

// AppendString appends the String form to buf — the allocation-light path
// log lines use for their timestamp prefix.
func (t Time) AppendString(buf []byte) []byte {
	d := time.Duration(t)
	days := d / (24 * time.Hour)
	rem := d % (24 * time.Hour)
	if days > 0 {
		buf = strconv.AppendInt(buf, int64(days), 10)
		buf = append(buf, 'd')
	}
	return append(buf, rem.String()...)
}

// Duration converts a simulated time to a time.Duration since epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Hours reports the time as fractional hours since epoch.
func (t Time) Hours() float64 { return time.Duration(t).Hours() }

// DayOfWeek reports the day index 0..6 of t, with day 0 being a Monday so
// that days 5 and 6 form the weekend.
func (t Time) DayOfWeek() int { return int(t/Day) % 7 }

// IsWeekend reports whether t falls on simulated Saturday or Sunday.
func (t Time) IsWeekend() bool { return t.DayOfWeek() >= 5 }

// HourOfDay reports the hour-of-day component 0..23 of t.
func (t Time) HourOfDay() int { return int(t/Hour) % 24 }

// IsOvernight reports whether t falls in the overnight batch window
// (22:00–06:00), the window the paper's overnight jobs run in.
func (t Time) IsOvernight() bool {
	h := t.HourOfDay()
	return h >= 22 || h < 6
}

// Event is a scheduled callback. The callback runs exactly once at its
// firing time unless cancelled first.
type Event struct {
	at       Time
	seq      uint64 // tie-break: FIFO among equal times
	queued   bool   // in the Sim's event queue
	fn       func(now Time)
	canceled bool
	pooled   bool // recycled into the Sim freelist after firing (Post events)
	label    string
}

// Label reports the diagnostic label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending.
func (e *Event) Cancel() bool {
	if e.canceled || !e.queued {
		return false
	}
	e.canceled = true
	return true
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New.
//
// Its pending events sit on the heap or in a constant-delay lane (see the
// package doc). First fires and variable delays go on the heap; re-arms of
// tickers and wheel buckets, and PostFixed events, go in the lane of their
// delay, one lane per distinct delay, kept for the Sim's life. Pending,
// Cancel and Reset see both alike.
type Sim struct {
	now     Time
	queue   eventQueue
	lanes   []lane
	laneMin int // index of the lane whose head pops first among the lanes; -1 when every lane is empty
	seq     uint64
	rng     *Rand
	fired   uint64
	free    []*Event // recycled Post events; never handed out as handles
}

// New returns a simulator at time zero whose random source is seeded with
// seed.
func New(seed uint64) *Sim {
	return &Sim{rng: NewRand(seed), laneMin: -1}
}

// Reset rewinds the simulator to a fresh state at time zero with the given
// seed: the event queue is emptied, the fired/sequence counters restart and
// the random source is reseeded. Allocated capacity (queue backing array,
// lanes, event freelist) is retained, which is the point — a reset Sim
// behaves exactly like New(seed) but without rebuilding its working set.
func (s *Sim) Reset(seed uint64) {
	s.queue.clear()
	for i := range s.lanes {
		s.lanes[i].clear()
	}
	s.laneMin = -1
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.rng.Reseed(seed)
}

// Now reports the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation-owned random source.
func (s *Sim) Rand() *Rand { return s.rng }

// Pending reports the number of events still queued (including cancelled
// events not yet discarded), on the heap and in the lanes.
func (s *Sim) Pending() int {
	n := len(s.queue)
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	return n
}

// Fired reports how many events have executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: that is always a simulation bug.
func (s *Sim) Schedule(at Time, label string, fn func(now Time)) *Event {
	if at < s.now {
		panic(fmt.Sprintf("simclock: schedule %q at %v before now %v", label, at, s.now))
	}
	e := &Event{at: at, seq: s.seq, fn: fn, label: label}
	s.seq++
	s.queue.push(e)
	return e
}

// After queues fn to run d after the current time.
func (s *Sim) After(d Time, label string, fn func(now Time)) *Event {
	return s.Schedule(s.now+d, label, fn)
}

// Post queues fn to run at absolute time at without returning a handle.
// Because the event can never be cancelled from outside, the Sim recycles
// its Event allocation after firing — hot paths that schedule and forget
// (message delivery, process reaping) should prefer Post over Schedule.
// Semantics are otherwise identical to Schedule, including the FIFO
// tie-break and the past-scheduling panic.
func (s *Sim) Post(at Time, label string, fn func(now Time)) {
	if at < s.now {
		panic(fmt.Sprintf("simclock: post %q at %v before now %v", label, at, s.now))
	}
	s.queue.push(s.pooled(at, label, fn))
}

// PostAfter queues fn to run d after the current time, like Post.
func (s *Sim) PostAfter(d Time, label string, fn func(now Time)) {
	s.Post(s.now+d, label, fn)
}

// PostFixed is PostAfter for a delay its caller always uses, such as a
// process's fixed run window: the event joins the lane of d instead of
// the heap, which costs O(1) and fires in the same order. A negative d
// panics, as a Post into the past does.
func (s *Sim) PostFixed(d Time, label string, fn func(now Time)) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: post %q at negative delay %v", label, d))
	}
	s.pushLane(s.pooled(s.now+d, label, fn), s.laneFor(d))
}

// pooled returns a freelist event (or a new one) set to run fn at at,
// with the next sequence number.
func (s *Sim) pooled(at Time, label string, fn func(now Time)) *Event {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.canceled = false
	} else {
		e = &Event{pooled: true}
	}
	e.at, e.fn, e.label = at, fn, label
	e.seq = s.seq
	s.seq++
	return e
}

// release returns a fired pooled event to the freelist.
func (s *Sim) release(e *Event) {
	e.fn = nil
	s.free = append(s.free, e)
}

// laneFor returns the index of the lane of delay d, adding the lane the
// first time d is asked for.
func (s *Sim) laneFor(d Time) int {
	for i := range s.lanes {
		if s.lanes[i].d == d {
			return i
		}
	}
	s.lanes = append(s.lanes, lane{d: d})
	return len(s.lanes) - 1
}

// pushLane queues e in lane i, or on the heap when e would pop before the
// lane's tail — which an event at now + d never does.
func (s *Sim) pushLane(e *Event, i int) {
	l := &s.lanes[i]
	if !l.push(e) {
		s.queue.push(e)
		return
	}
	if l.n == 1 && (s.laneMin < 0 || l.front().before(s.lanes[s.laneMin].front())) {
		s.laneMin = i
	}
}

// rearm re-queues a fired (or never-queued) event one lane delay on, with
// a fresh FIFO sequence number — the allocation-free path repeating timers
// use. The event must not be queued.
func (s *Sim) rearm(e *Event, lane int) {
	e.at = s.now + s.lanes[lane].d
	e.canceled = false
	e.seq = s.seq
	s.seq++
	s.pushLane(e, lane)
}

// front returns the slot that pops next and the lane holding it (-1 for
// the heap), or nil when nothing is queued.
func (s *Sim) front() (*queueSlot, int) {
	var top *queueSlot
	if len(s.queue) > 0 {
		top = &s.queue[0]
	}
	if m := s.laneMin; m >= 0 {
		if h := s.lanes[m].front(); top == nil || h.before(top) {
			return h, m
		}
	}
	return top, -1
}

// popFrom removes the next event from its source, as front named it.
func (s *Sim) popFrom(src int) *Event {
	if src < 0 {
		return s.queue.pop()
	}
	return s.popLane(src)
}

// popLane pops lane src's head and finds the lane that now pops first.
func (s *Sim) popLane(src int) *Event {
	e := s.lanes[src].pop()
	m := -1
	for i := range s.lanes {
		if l := &s.lanes[i]; l.n > 0 && (m < 0 || l.front().before(s.lanes[m].front())) {
			m = i
		}
	}
	s.laneMin = m
	return e
}

// Every schedules fn to run first at start and then every period
// thereafter, for the rest of the run. A period of zero or less panics.
func (s *Sim) Every(start, period Time, label string, fn func(now Time)) {
	if period <= 0 {
		panic("simclock: non-positive ticker period for " + label)
	}
	t := &ticker{sim: s, lane: s.laneFor(period), fn: fn}
	t.ev = s.Schedule(start, label, t.fire)
}

// ticker is a repeating event created by Every. Its first fire sits on
// the heap; each re-arm rides the lane of its period.
type ticker struct {
	sim  *Sim
	lane int // the lane of the ticker's period
	fn   func(now Time)
	ev   *Event
}

func (t *ticker) fire(now Time) {
	t.fn(now)
	// Reuse the just-fired event: t.ev is the event this callback belongs
	// to, already popped from the queue, and its handle never escapes the
	// ticker, so re-queueing it is safe and allocation-free.
	t.sim.rearm(t.ev, t.lane)
}

// RunUntil executes events in time order until the clock would pass end or
// the queue drains. Unless end has already passed, the clock finishes at
// exactly end (even if the queue drained earlier), so sampling code can
// rely on Now() == end afterwards.
func (s *Sim) RunUntil(end Time) {
	for {
		top, src := s.front()
		if top == nil {
			break
		}
		if top.ev.canceled {
			s.popFrom(src)
			continue
		}
		if top.at > end {
			break
		}
		e := s.popFrom(src)
		s.now = e.at
		s.fired++
		fn := e.fn
		if e.pooled {
			s.release(e)
		}
		fn(s.now)
	}
	if s.now < end {
		s.now = end
	}
}
