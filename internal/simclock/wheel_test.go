package simclock

import (
	"fmt"
	"reflect"
	"testing"
)

// --- Reference model: an independent, obviously-correct event engine ---

// modelEvent mirrors one scheduled callback in the reference engine.
type modelEvent struct {
	at       Time
	seq      uint64
	id       int
	canceled bool
	fired    bool
}

// modelEngine executes events in (time, seq) order — the FIFO-among-equals
// contract — with a linear scan instead of a heap, sharing no code with
// the Sim under test.
type modelEngine struct {
	events []*modelEvent
	seq    uint64
	now    Time
}

func (m *modelEngine) schedule(at Time, id int) *modelEvent {
	e := &modelEvent{at: at, seq: m.seq, id: id}
	m.seq++
	m.events = append(m.events, e)
	return e
}

func (m *modelEngine) next() *modelEvent {
	var best *modelEvent
	for _, e := range m.events {
		if e.canceled || e.fired {
			continue
		}
		if best == nil || e.at < best.at || (e.at == best.at && e.seq < best.seq) {
			best = e
		}
	}
	return best
}

// runUntil fires every event due at or before end, in order.
func (m *modelEngine) runUntil(end Time, onFire func(id int, now Time)) {
	for {
		e := m.next()
		if e == nil || e.at > end {
			return
		}
		m.now = e.at
		e.fired = true
		onFire(e.id, e.at)
	}
}

// splitmix is a tiny deterministic generator for the property tests,
// independent of the Rand under test.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// script is a randomly generated schedule: root events, a cancellation
// subset, and child events spawned when their parent fires — the same
// script drives both engines. With chunks set, the run goes through
// RunUntil at each chunk end in turn before the final Run, and after
// chunk k the roots listed in lateCancel[k] are cancelled.
type script struct {
	roots []scriptEvent
	// child[id] spawns when id fires.
	childDelta map[int]Time
	childOf    map[int]int
	childPost  map[int]bool

	chunks     []Time
	lateCancel map[int][]int // chunk index -> non-post root ids
}

// childBase offsets child ids past every root id.
const childBase = 1 << 20

type scriptEvent struct {
	id     int
	at     Time
	post   bool // use Sim.Post (no handle, pooled) instead of Schedule
	cancel bool // cancel before running (only for non-post events)
}

func genScript(rng *splitmix) script {
	// Times drawn from a tiny range so equal-time collisions are the
	// norm, not the exception.
	return genScriptN(rng, 10+rng.intn(40), 8)
}

// genScriptN draws n roots on the given number of distinct whole-second
// instants; a third of them spawn a child at +0 to +3 s.
func genScriptN(rng *splitmix, n, instants int) script {
	sc := script{childDelta: map[int]Time{}, childOf: map[int]int{}, childPost: map[int]bool{}}
	for i := 0; i < n; i++ {
		ev := scriptEvent{
			id:   i,
			at:   Time(rng.intn(instants)) * Second,
			post: rng.intn(4) == 0,
		}
		ev.cancel = !ev.post && rng.intn(4) == 0
		sc.roots = append(sc.roots, ev)
		if rng.intn(3) == 0 {
			sc.childDelta[i] = Time(rng.intn(4)) * Second
			sc.childOf[i] = childBase + i
			sc.childPost[i] = rng.intn(2) == 0
		}
	}
	return sc
}

// runLog is what a script run observes: every firing in order, and the
// result of each late Cancel.
type runLog struct {
	fired   []firing
	cancels []bool
}

// runOn executes the script on sim, which must be at time zero.
func (sc script) runOn(sim *Sim) runLog {
	var log runLog
	var fire func(id int) func(Time)
	fire = func(id int) func(Time) {
		return func(now Time) {
			log.fired = append(log.fired, firing{now, id})
			if d, ok := sc.childDelta[id]; ok {
				if sc.childPost[id] {
					sim.Post(now+d, "child", fire(sc.childOf[id]))
				} else {
					sim.Schedule(now+d, "child", fire(sc.childOf[id]))
				}
			}
		}
	}
	handles := map[int]*Event{}
	var cancels []*Event
	for _, ev := range sc.roots {
		if ev.post {
			sim.Post(ev.at, "root", fire(ev.id))
			continue
		}
		h := sim.Schedule(ev.at, "root", fire(ev.id))
		handles[ev.id] = h
		if ev.cancel {
			cancels = append(cancels, h)
		}
	}
	for _, h := range cancels {
		h.Cancel()
	}
	for k, end := range sc.chunks {
		sim.RunUntil(end)
		for _, id := range sc.lateCancel[k] {
			log.cancels = append(log.cancels, handles[id].Cancel())
		}
	}
	sim.Run()
	return log
}

// runOnModel executes the script on the reference engine.
func (sc script) runOnModel() runLog {
	m := &modelEngine{}
	var log runLog
	handles := map[int]*modelEvent{}
	for _, ev := range sc.roots {
		e := m.schedule(ev.at, ev.id)
		e.canceled = ev.cancel
		handles[ev.id] = e
	}
	onFire := func(id int, now Time) {
		log.fired = append(log.fired, firing{now, id})
		if d, ok := sc.childDelta[id]; ok {
			m.schedule(now+d, sc.childOf[id])
		}
	}
	for k, end := range sc.chunks {
		m.runUntil(end, onFire)
		for _, id := range sc.lateCancel[k] {
			e := handles[id]
			log.cancels = append(log.cancels, !e.canceled && !e.fired)
			e.canceled = true
		}
	}
	m.runUntil(Never, onFire)
	return log
}

// TestRandomScheduleCancelMatchesModel drives the Sim with hundreds of
// random schedules — heavy on equal firing times — plus cancellations and
// callback-scheduled children, asserting the firing order matches the
// independent reference engine exactly. This pins the FIFO tie-break among
// equal-time events, including events created while the clock runs and
// pooled Post events interleaved with handle-returning Schedules (both
// draw sequence numbers from the same FIFO counter).
func TestRandomScheduleCancelMatchesModel(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := splitmix(trial * 2654435761)
		sc := genScript(&rng)
		got := sc.runOn(New(1))
		want := sc.runOnModel()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: firing order diverged\n sim:   %v\n model: %v", trial, got, want)
		}
	}
}

// FuzzScheduleOrder is the fuzzing harness over the same model: arbitrary
// bytes become a schedule/cancel script. `go test` runs the seed corpus;
// `go test -fuzz=FuzzScheduleOrder` explores further.
func FuzzScheduleOrder(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(0xdeadbeef))
	f.Add(uint64(1 << 40))
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := splitmix(seed)
		sc := genScript(&rng)
		got := sc.runOn(New(1))
		want := sc.runOnModel()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: firing order diverged\n sim:   %v\n model: %v", seed, got, want)
		}
	})
}

// --- Wheel vs per-entry tickers ---

// cronSpec describes one repeating entry plus an optional stop: stopAt is
// an absolute time at which a separately scheduled event stops the entry,
// and stopBy optionally names another entry whose callback performs the
// stop instead (stopping a co-bucketed entry mid-walk).
type cronSpec struct {
	phase, period Time
	stopAt        Time // 0 = never
	stopByPeer    int  // -1, or index of the entry whose callback stops us at its first fire
}

// genCrons generates coordinate groups registered contiguously: entries
// sharing a (phase, period) coordinate — a wheel bucket — are adjacent in
// registration order, as they are when a site deploys its agents host by
// host. Under interleaved registration of colliding coordinates the wheel
// legitimately batches a bucket's entries together where per-entry tickers
// would interleave them; real sites draw continuous random phases, so
// coordinates only collide for co-registered entries and the schemes
// agree. Distinct coordinates still collide in firing time constantly here
// (phase 0 period 1s vs phase 0 period 2s, etc.), which is the tie-break
// surface the property pins.
func genCrons(rng *splitmix) []cronSpec {
	groups := 1 + rng.intn(4)
	var specs []cronSpec
	seen := map[[2]Time]bool{}
	for g := 0; g < groups; g++ {
		phase := Time(rng.intn(3)) * Second
		period := Time(1+rng.intn(3)) * Second
		if seen[[2]Time{phase, period}] {
			continue // two groups on one coordinate would be one interleaved bucket
		}
		seen[[2]Time{phase, period}] = true
		for k := 1 + rng.intn(3); k > 0; k-- {
			specs = append(specs, cronSpec{phase: phase, period: period, stopByPeer: -1})
		}
	}
	for i := range specs {
		switch rng.intn(4) {
		case 0:
			specs[i].stopAt = Time(1+rng.intn(10)) * Second
		case 1:
			specs[i].stopByPeer = rng.intn(len(specs))
		}
	}
	return specs
}

type firing struct {
	At Time
	ID int
}

// runCrons executes the cron specs to the horizon under either scheme and
// records every (time, entry) firing in order.
func runCrons(specs []cronSpec, horizon Time, wheel bool) []firing {
	sim := New(1)
	var out []firing
	stops := make([]func(), len(specs))
	fired := make([]bool, len(specs))
	for i, spec := range specs {
		i, spec := i, spec
		fn := func(now Time) {
			out = append(out, firing{now, i})
			first := !fired[i]
			fired[i] = true
			if first {
				for j, s := range specs {
					if s.stopByPeer == i && stops[j] != nil {
						stops[j]()
					}
				}
			}
		}
		if wheel {
			w := simWheel(sim)
			e := w.Add(sim.Now()+spec.phase, spec.period, fmt.Sprintf("e%d", i), fn)
			stops[i] = e.Stop
		} else {
			tk := sim.Every(sim.Now()+spec.phase, spec.period, fmt.Sprintf("e%d", i), fn)
			stops[i] = tk.Stop
		}
	}
	for i, spec := range specs {
		if spec.stopAt > 0 {
			i := i
			sim.Schedule(spec.stopAt, "stop", func(Time) { stops[i]() })
		}
	}
	sim.RunUntil(horizon)
	return out
}

// one wheel per sim, lazily.
var wheels = map[*Sim]*Wheel{}

func simWheel(s *Sim) *Wheel {
	if w, ok := wheels[s]; ok {
		return w
	}
	w := NewWheel(s)
	wheels[s] = w
	return w
}

// TestWheelMatchesEveryUnderRandomInterleavings is the wheel's equivalence
// property: random sets of repeating entries — with colliding phases and
// periods so buckets hold several entries — fire at identical times in
// identical order whether scheduled as individual tickers or coalesced on
// a wheel, under random stop interleavings including entries stopped from
// a co-bucketed peer's callback mid-walk.
func TestWheelMatchesEveryUnderRandomInterleavings(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := splitmix(trial*7919 + 3)
		specs := genCrons(&rng)
		horizon := Time(5+rng.intn(15)) * Second
		every := runCrons(specs, horizon, false)
		wheel := runCrons(specs, horizon, true)
		if !reflect.DeepEqual(every, wheel) {
			t.Fatalf("trial %d (%+v): schemes diverged\n every: %v\n wheel: %v", trial, specs, every, wheel)
		}
	}
}

// TestWheelBucketMembership pins the Cancel-vs-bucket rules: entries on a
// shared coordinate coalesce into one pending event, stopping one entry
// keeps the bucket alive, stopping the last cancels the bucket's event,
// and a later Add on a live coordinate re-joins the existing bucket.
func TestWheelBucketMembership(t *testing.T) {
	sim := New(1)
	w := NewWheel(sim)
	var order []string
	a := w.Add(Second, Second, "a", func(Time) { order = append(order, "a") })
	b := w.Add(Second, Second, "b", func(Time) { order = append(order, "b") })
	w.Add(2*Second, Second, "c", func(Time) { order = append(order, "c") })
	if got := w.Buckets(); got != 2 {
		t.Fatalf("Buckets() = %d, want 2 (a+b coalesced, c separate)", got)
	}
	if got := w.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}
	if got := sim.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2: one heap event per bucket", got)
	}

	sim.RunUntil(Second) // a, b fire; c not yet
	if want := []string{"a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("first tick order = %v, want %v (registration order)", order, want)
	}

	a.Stop()
	if a.Stopped() != true || w.Len() != 2 {
		t.Fatalf("after a.Stop: Stopped=%v Len=%d", a.Stopped(), w.Len())
	}
	if got := w.Buckets(); got != 2 {
		t.Fatalf("Buckets() = %d after stopping one of two entries, want 2", got)
	}

	order = nil
	// At 2s both c (initial event, early sequence number) and b's bucket
	// (rescheduled at 1s, fresh sequence number) fire: FIFO puts c first —
	// exactly what per-entry tickers would do.
	sim.RunUntil(2 * Second)
	if want := []string{"c", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("second tick order = %v, want %v", order, want)
	}

	// Stopping the last live entry of b's bucket cancels its heap event.
	pendingBefore := sim.Pending()
	b.Stop()
	if got := w.Buckets(); got != 1 {
		t.Fatalf("Buckets() = %d after emptying a bucket, want 1", got)
	}
	// The cancelled event may linger in the heap until popped, but firing
	// must stop entirely.
	order = nil
	sim.RunUntil(4 * Second)
	if want := []string{"c", "c"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("after stopping b: firings = %v, want %v", order, want)
	}
	_ = pendingBefore

	// Double-stop is a no-op; stopping from inside the callback works.
	b.Stop()
	w.Add(5*Second, Second, "c2", func(Time) { order = append(order, "c2") })
	var d *CronEntry
	d = w.Add(5*Second, Second, "d", func(Time) {
		order = append(order, "d")
		d.Stop()
	})
	order = nil
	sim.RunUntil(7 * Second)
	// c fires at 5,6,7; c2+d at 5 (d stops itself), c2 at 6,7.
	want := []string{"c", "c2", "d", "c", "c2", "c", "c2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("self-stop sequence = %v, want %v", order, want)
	}
}

// TestTickerStopUnderInterleavings pins Ticker semantics the wheel must
// coexist with: stop inside the callback, stop from a same-time event,
// double-stop, and event reuse not resurrecting a stopped ticker.
func TestTickerStopUnderInterleavings(t *testing.T) {
	sim := New(1)
	var ticks []Time
	var tk *Ticker
	tk = sim.Every(Second, Second, "self-stop", func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	sim.Run()
	if len(ticks) != 3 {
		t.Fatalf("self-stopping ticker fired %d times, want 3", len(ticks))
	}
	tk.Stop() // double-stop: no-op

	// A stop scheduled at the same instant as a tick: the tick's event is
	// rescheduled at each fire with a fresh sequence number, so the stop —
	// queued at setup — wins the 2s tie and the 2s tick never runs.
	sim2 := New(1)
	var n int
	tk2 := sim2.Every(Second, Second, "tick", func(Time) { n++ })
	sim2.Schedule(2*Second, "stop", func(Time) { tk2.Stop() })
	sim2.Run()
	if n != 1 {
		t.Fatalf("ticker with same-time stop fired %d times, want 1 (the 1s tick; the stop wins the 2s tie)", n)
	}
}
