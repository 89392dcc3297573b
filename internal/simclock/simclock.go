// Package simclock provides a deterministic discrete-event simulation
// engine: a virtual clock, an event queue ordered by firing time, repeating
// timers, and a seeded random source. Every stochastic component of the
// cluster simulation draws from a Rand owned by the Sim so that whole
// scenarios replay bit-for-bit from a seed.
package simclock

import (
	"fmt"
	"math"
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

// Never is a sentinel time later than any schedulable event.
const Never = Time(math.MaxInt64)

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

// At reports the scheduled firing time.
func (e *Event) At() Time { return e.at }

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
type Sim struct {
	now     Time
	queue   eventQueue
	seq     uint64
	rng     *Rand
	fired   uint64
	stopped bool
	free    []*Event // recycled Post events; never handed out as handles
}

// New returns a simulator at time zero whose random source is seeded with
// seed.
func New(seed uint64) *Sim {
	return &Sim{rng: NewRand(seed)}
}

// Reset rewinds the simulator to a fresh state at time zero with the given
// seed: the event queue is emptied, the fired/sequence counters restart and
// the random source is reseeded. Allocated capacity (queue backing array,
// event freelist) is retained, which is the point — a reset Sim behaves
// exactly like New(seed) but without rebuilding its working set.
func (s *Sim) Reset(seed uint64) {
	s.queue.clear()
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
	s.rng.Reseed(seed)
}

// Now reports the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation-owned random source.
func (s *Sim) Rand() *Rand { return s.rng }

// Pending reports the number of events still queued (including cancelled
// events not yet discarded).
func (s *Sim) Pending() int { return len(s.queue) }

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
	s.queue.push(e)
}

// PostAfter queues fn to run d after the current time, like Post.
func (s *Sim) PostAfter(d Time, label string, fn func(now Time)) {
	s.Post(s.now+d, label, fn)
}

// release returns a fired pooled event to the freelist.
func (s *Sim) release(e *Event) {
	e.fn = nil
	s.free = append(s.free, e)
}

// reschedule re-queues a fired (or never-queued) event at a new time with a
// fresh FIFO sequence number — the allocation-free path repeating timers
// use. The event must not be in the queue.
func (s *Sim) reschedule(e *Event, at Time) {
	if at < s.now {
		panic(fmt.Sprintf("simclock: reschedule %q at %v before now %v", e.label, at, s.now))
	}
	e.at = at
	e.canceled = false
	e.seq = s.seq
	s.seq++
	s.queue.push(e)
}

// Every schedules fn to run first at start and then every period thereafter
// until the returned Ticker is stopped. A period of zero or less panics.
func (s *Sim) Every(start, period Time, label string, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("simclock: non-positive ticker period for " + label)
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.ev = s.Schedule(start, label, t.fire)
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	sim     *Sim
	period  Time
	fn      func(now Time)
	ev      *Event
	stopped bool
}

func (t *Ticker) fire(now Time) {
	if t.stopped {
		return
	}
	t.fn(now)
	if t.stopped { // fn may stop its own ticker
		return
	}
	// Reuse the just-fired event: t.ev is the event this callback belongs
	// to, already popped from the queue, and its handle never escapes the
	// ticker, so re-queueing it is safe and allocation-free.
	t.sim.reschedule(t.ev, now+t.period)
}

// Stop cancels future ticks. It is safe to call from within the tick
// callback and multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}

// Step executes the next pending event, advancing the clock to its firing
// time. It reports false when no events remain.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		if e.canceled {
			continue
		}
		if e.at < s.now {
			panic("simclock: event queue yielded past event")
		}
		s.now = e.at
		s.fired++
		fn := e.fn
		if e.pooled {
			s.release(e)
		}
		fn(s.now)
		return true
	}
	return false
}

// RunUntil executes events in time order until the clock would pass end or
// the queue drains or Stop is called. The clock finishes at exactly end if
// it was reached (even if the queue drained earlier), so sampling code can
// rely on Now() == end afterwards.
func (s *Sim) RunUntil(end Time) {
	s.stopped = false
	for !s.stopped && len(s.queue) > 0 {
		top := &s.queue[0]
		if top.ev.canceled {
			s.queue.pop()
			continue
		}
		if top.at > end {
			break
		}
		e := s.queue.pop()
		s.now = e.at
		s.fired++
		fn := e.fn
		if e.pooled {
			s.release(e)
		}
		fn(s.now)
	}
	if !s.stopped && s.now < end {
		s.now = end
	}
}

// Run executes events until the queue drains or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// Stop halts RunUntil/Run after the current event callback returns.
func (s *Sim) Stop() { s.stopped = true }
