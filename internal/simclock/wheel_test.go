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
// contract — with a linear scan instead of a heap and lanes, sharing no
// code with the Sim under test. Like the Sim, it discards a cancelled
// event only when that event is the earliest one pending, so its pending
// count is what Sim.Pending reports.
type modelEngine struct {
	pending []*modelEvent // neither fired nor discarded
	seq     uint64
	now     Time
	fired   uint64
}

func (m *modelEngine) schedule(at Time, id int) *modelEvent {
	e := &modelEvent{at: at, seq: m.seq, id: id}
	m.seq++
	m.pending = append(m.pending, e)
	return e
}

// runUntil fires every event due at or before end, in order, and leaves
// the clock at end unless end is Never.
func (m *modelEngine) runUntil(end Time, onFire func(e *modelEvent)) {
	if end != Never {
		defer func() { m.now = max(m.now, end) }()
	}
	for len(m.pending) > 0 {
		bi := 0
		for i, e := range m.pending {
			if b := m.pending[bi]; e.at < b.at || (e.at == b.at && e.seq < b.seq) {
				bi = i
			}
		}
		e := m.pending[bi]
		if !e.canceled && e.at > end {
			return
		}
		last := len(m.pending) - 1
		m.pending[bi], m.pending[last] = m.pending[last], nil
		m.pending = m.pending[:last]
		if e.canceled {
			continue
		}
		m.now = e.at
		m.fired++
		e.fired = true
		onFire(e)
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

// script is a randomly generated schedule — the same script drives both
// engines:
//   - root events, Scheduled or Posted, some cancelled before the run;
//   - tickers (Sim.Every) and wheel entries on two or three shared
//     periods, so their re-arms share lanes; some tickers stop themselves,
//     some are stopped by a root's callback or after a chunk;
//   - children that a root, a tick or a wheel entry spawns when it fires,
//     by Schedule, Post or PostFixed — the fixed delays share lanes with
//     the periods.
//
// The run goes through RunUntil at each chunk end in turn, then to the
// horizon — or, for a draining script, through Run until the queue is
// empty, so Step pops the heap and the lanes. After chunk k, the roots
// listed in lateCancel[k] are cancelled and the tickers in lateStop[k]
// stopped.
type script struct {
	roots   []scriptEvent
	tickers []scriptTicker
	entries []scriptEntry // equal coordinates are adjacent, as the wheel requires
	// childDelta[id] spawns child id+childBase when id fires.
	childDelta map[int]Time
	childKind  map[int]childKind
	rootStops  map[int]int // root id -> the ticker its callback stops

	chunks     []Time
	lateCancel map[int][]int // chunk index -> non-post root ids
	lateStop   map[int][]int // chunk index -> ticker indexes
	horizon    Time
	// drain: every ticker stops itself and there are no wheel entries,
	// which never stop, so the run can end in Run.
	drain bool
}

// Firing ids: roots count from 0, ticker i fires as tickerBase+i, wheel
// entry j as wheelBase+j, and a child as its parent's id plus childBase.
// Bucket events carry bucketBase+b in the model and log nothing
// themselves.
const (
	childBase  = 1 << 20
	tickerBase = 1 << 22
	wheelBase  = 1 << 23
	bucketBase = 1 << 24
)

type scriptEvent struct {
	id     int
	at     Time
	post   bool // use Sim.Post (no handle, pooled) instead of Schedule
	cancel bool // cancel before running (only for non-post events)
}

type scriptTicker struct {
	start, period Time
	selfStop      int // the tick count after which the ticker stops itself; 0 never
}

type scriptEntry struct {
	start, period Time
}

type childKind uint8

const (
	childSchedule childKind = iota
	childPost
	childFixed
)

// The candidate periods and fixed delays: a script draws two or three
// periods, and the fixed delays 1.5 s and 2 s coincide with periods.
var (
	scriptPeriods = []Time{Second, 3 * Second / 2, 2 * Second, 3 * Second}
	fixedDelays   = []Time{0, Second, 3 * Second / 2, 2 * Second}
)

// genScript draws a small script. Half of them drain, and half of those
// run through Run alone, with no chunks.
func genScript(rng *splitmix) script {
	// Times drawn from a tiny range so equal-time collisions are the
	// norm, not the exception.
	sc := genScriptN(rng, 10+rng.intn(40), 8, rng.intn(2) == 0)
	if !sc.drain || rng.intn(2) == 0 {
		sc.genChunks(rng, 4, 3*Second)
	}
	return sc
}

// genScriptN draws n roots on the given number of distinct whole-second
// instants, tickers and — unless the script drains — wheel entries on two
// or three periods, and children for a third of everything that fires.
func genScriptN(rng *splitmix, n, instants int, drain bool) script {
	sc := script{
		childDelta: map[int]Time{}, childKind: map[int]childKind{}, rootStops: map[int]int{},
		lateCancel: map[int][]int{}, lateStop: map[int][]int{},
		horizon: Time(instants+8) * Second, drain: drain,
	}
	addChild := func(id int) {
		if rng.intn(3) != 0 {
			return
		}
		kind := childKind(rng.intn(3))
		sc.childKind[id] = kind
		if kind == childFixed {
			sc.childDelta[id] = fixedDelays[rng.intn(len(fixedDelays))]
		} else {
			sc.childDelta[id] = Time(rng.intn(4)) * Second
		}
	}
	for i := 0; i < n; i++ {
		ev := scriptEvent{
			id:   i,
			at:   Time(rng.intn(instants)) * Second,
			post: rng.intn(4) == 0,
		}
		ev.cancel = !ev.post && rng.intn(4) == 0
		sc.roots = append(sc.roots, ev)
		addChild(i)
	}
	first := rng.intn(len(scriptPeriods))
	periods := []Time{scriptPeriods[first], scriptPeriods[(first+1+rng.intn(len(scriptPeriods)-1))%len(scriptPeriods)]}
	if rng.intn(2) == 0 {
		periods = append(periods, scriptPeriods[rng.intn(len(scriptPeriods))])
	}
	start := func() Time { return Time(rng.intn(2*instants)) * Second / 2 }
	for i := 1 + rng.intn(4+n/200); i > 0; i-- {
		tk := scriptTicker{start: start(), period: periods[rng.intn(len(periods))]}
		if drain {
			tk.selfStop = 1 + rng.intn(8)
		} else if rng.intn(4) == 0 {
			tk.selfStop = 1 + rng.intn(5)
		}
		addChild(tickerBase + len(sc.tickers))
		sc.tickers = append(sc.tickers, tk)
	}
	seen := map[scriptEntry]bool{} // one group per coordinate: the wheel needs them contiguous
	for c := rng.intn(4); c > 0 && !drain; c-- {
		en := scriptEntry{start: start(), period: periods[rng.intn(len(periods))]}
		if seen[en] {
			continue
		}
		seen[en] = true
		for k := 1 + rng.intn(3); k > 0; k-- {
			addChild(wheelBase + len(sc.entries))
			sc.entries = append(sc.entries, en)
		}
	}
	for i := range n / 20 {
		sc.rootStops[rng.intn(n)] = (i + rng.intn(len(sc.tickers))) % len(sc.tickers)
	}
	return sc
}

// genChunks adds RunUntil chunk ends up to last, a quarter-second grid
// apart on average step/2 — so ends fall on lane heads and between them
// — with a few roots cancelled and a few tickers stopped after each.
func (sc *script) genChunks(rng *splitmix, last, step Time) {
	var handled []int // roots with a handle to cancel
	for _, ev := range sc.roots {
		if !ev.post {
			handled = append(handled, ev.id)
		}
	}
	for end := Time(0); end < last; {
		end += Time(rng.intn(int(step/(Second/4))+1)) * Second / 4
		k := len(sc.chunks)
		sc.chunks = append(sc.chunks, end)
		for c := rng.intn(4); c > 0 && len(handled) > 0; c-- {
			sc.lateCancel[k] = append(sc.lateCancel[k], handled[rng.intn(len(handled))])
		}
		if rng.intn(4) == 0 {
			sc.lateStop[k] = append(sc.lateStop[k], rng.intn(len(sc.tickers)))
		}
	}
}

// runLog is what a script run observes: every firing in order, the
// result of each late Cancel, the engine's state after each chunk and at
// the end, and how many ticks found their own event still marked queued.
type runLog struct {
	fired             []firing
	cancels           []bool
	states            []engineState
	queuedWhileFiring int
}

// engineState is what the Sim reports between runs: Pending(), Fired()
// and Now(). Fired counts a stopped ticker's event that ran anyway, which
// logs nothing.
type engineState struct {
	Pending int
	Fired   uint64
	Now     Time
}

// runOn executes the script on sim, which must be at time zero.
func (sc script) runOn(sim *Sim) runLog {
	var log runLog
	var tickers []*Ticker
	var fire func(id int) func(Time)
	spawn := func(id int, now Time) {
		d, ok := sc.childDelta[id]
		if !ok {
			return
		}
		switch sc.childKind[id] {
		case childSchedule:
			sim.Schedule(now+d, "child", fire(id+childBase))
		case childPost:
			sim.Post(now+d, "child", fire(id+childBase))
		case childFixed:
			sim.PostFixed(d, "child", fire(id+childBase))
		}
	}
	fire = func(id int) func(Time) {
		return func(now Time) {
			log.fired = append(log.fired, firing{now, id})
			spawn(id, now)
			if i, ok := sc.rootStops[id]; ok {
				tickers[i].Stop()
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
	for i, spec := range sc.tickers {
		id, ticks := tickerBase+i, 0
		var tk *Ticker
		tk = sim.Every(spec.start, spec.period, "ticker", func(now Time) {
			if tk.ev.queued {
				log.queuedWhileFiring++
			}
			log.fired = append(log.fired, firing{now, id})
			spawn(id, now)
			if ticks++; ticks == spec.selfStop {
				tk.Stop()
			}
		})
		tickers = append(tickers, tk)
	}
	w := NewWheel(sim)
	for j, en := range sc.entries {
		id := wheelBase + j
		w.Add(en.start, en.period, "entry", func(now Time) {
			log.fired = append(log.fired, firing{now, id})
			spawn(id, now)
		})
	}
	for _, h := range cancels {
		h.Cancel()
	}
	for k, end := range sc.chunks {
		sim.RunUntil(end)
		for _, id := range sc.lateCancel[k] {
			log.cancels = append(log.cancels, handles[id].Cancel())
		}
		for _, i := range sc.lateStop[k] {
			tickers[i].Stop()
		}
		log.states = append(log.states, engineState{sim.Pending(), sim.Fired(), sim.Now()})
	}
	if sc.drain {
		sim.Run()
	} else {
		sim.RunUntil(sc.horizon)
	}
	log.states = append(log.states, engineState{sim.Pending(), sim.Fired(), sim.Now()})
	return log
}

// runOnModel executes the script on the reference engine.
func (sc script) runOnModel() runLog {
	m := &modelEngine{}
	var log runLog
	type modelTicker struct {
		ev      *modelEvent
		ticks   int
		stopped bool
	}
	tickers := make([]modelTicker, len(sc.tickers))
	stop := func(i int) {
		t := &tickers[i]
		if !t.stopped && !t.ev.fired {
			t.ev.canceled = true
		}
		t.stopped = true
	}
	type modelBucket struct {
		period  Time
		entries []int
	}
	var buckets []modelBucket
	spawn := func(id int, now Time) {
		if d, ok := sc.childDelta[id]; ok {
			m.schedule(now+d, id+childBase)
		}
	}
	onFire := func(e *modelEvent) {
		id, now := e.id, e.at
		switch {
		case id >= bucketBase:
			b := buckets[id-bucketBase]
			for _, j := range b.entries {
				log.fired = append(log.fired, firing{now, wheelBase + j})
				spawn(wheelBase+j, now)
			}
			m.schedule(now+b.period, id)
		case id >= tickerBase && id < tickerBase+childBase:
			i := id - tickerBase
			log.fired = append(log.fired, firing{now, id})
			spawn(id, now)
			t := &tickers[i]
			if t.ticks++; t.ticks == sc.tickers[i].selfStop {
				stop(i)
			}
			if !t.stopped {
				t.ev = m.schedule(now+sc.tickers[i].period, id)
			}
		default:
			log.fired = append(log.fired, firing{now, id})
			spawn(id, now)
			if i, ok := sc.rootStops[id]; ok {
				stop(i)
			}
		}
	}
	handles := map[int]*modelEvent{}
	for _, ev := range sc.roots {
		e := m.schedule(ev.at, ev.id)
		e.canceled = ev.cancel
		handles[ev.id] = e
	}
	for i, spec := range sc.tickers {
		tickers[i].ev = m.schedule(spec.start, tickerBase+i)
	}
	for j, en := range sc.entries {
		if j > 0 && en == sc.entries[j-1] {
			buckets[len(buckets)-1].entries = append(buckets[len(buckets)-1].entries, j)
			continue
		}
		m.schedule(en.start, bucketBase+len(buckets))
		buckets = append(buckets, modelBucket{period: en.period, entries: []int{j}})
	}
	for k, end := range sc.chunks {
		m.runUntil(end, onFire)
		for _, id := range sc.lateCancel[k] {
			e := handles[id]
			log.cancels = append(log.cancels, !e.canceled && !e.fired)
			e.canceled = true
		}
		for _, i := range sc.lateStop[k] {
			stop(i)
		}
		log.states = append(log.states, engineState{len(m.pending), m.fired, m.now})
	}
	end := sc.horizon
	if sc.drain {
		end = Never
	}
	m.runUntil(end, onFire)
	log.states = append(log.states, engineState{len(m.pending), m.fired, m.now})
	return log
}

// TestRandomScheduleCancelMatchesModel drives the Sim with hundreds of
// random schedules — heavy on equal firing times — plus cancellations,
// callback-scheduled children, tickers and wheel buckets that re-arm in
// shared lanes, fixed-delay posts, and ticker stops, asserting that the
// firing order, the Cancel results and Pending() match the independent
// reference engine exactly, whether the run ends in RunUntil or drains
// through Run (Step). This pins the FIFO tie-break among equal-time
// events wherever they queue: on the heap, in a lane, created while the
// clock runs, pooled or handle-returning (all draw sequence numbers from
// the same FIFO counter).
func TestRandomScheduleCancelMatchesModel(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := splitmix(trial * 2654435761)
		sc := genScript(&rng)
		got := sc.runOn(New(1))
		want := sc.runOnModel()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: run diverged from the model\n sim:   %+v\n model: %+v", trial, got, want)
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
			t.Fatalf("seed %d: run diverged from the model\n sim:   %+v\n model: %+v", seed, got, want)
		}
	})
}

// --- Wheel vs per-entry tickers ---

// cronSpec describes one repeating entry.
type cronSpec struct {
	phase, period Time
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
			specs = append(specs, cronSpec{phase: phase, period: period})
		}
	}
	return specs
}

type firing struct {
	At Time
	ID int
}

// runCrons executes the cron specs to the horizon under either scheme and
// records every (time, entry) firing in order. Each firing also posts a
// same-instant event, so the wheel's buckets and the tickers' events
// interleave with callback-scheduled work as well as with each other.
func runCrons(specs []cronSpec, horizon Time, wheel bool) []firing {
	sim := New(1)
	w := NewWheel(sim)
	var out []firing
	for i, spec := range specs {
		fn := func(now Time) {
			out = append(out, firing{now, i})
			sim.Post(now, "echo", func(now Time) { out = append(out, firing{now, -1 - i}) })
		}
		if wheel {
			w.Add(sim.Now()+spec.phase, spec.period, fmt.Sprintf("e%d", i), fn)
		} else {
			sim.Every(sim.Now()+spec.phase, spec.period, fmt.Sprintf("e%d", i), fn)
		}
	}
	sim.RunUntil(horizon)
	return out
}

// TestWheelMatchesEveryUnderRandomInterleavings is the wheel's equivalence
// property: random sets of repeating entries — with colliding phases and
// periods so buckets hold several entries, and distinct coordinates that
// collide in firing time — fire at identical times in identical order
// whether scheduled as individual tickers or coalesced on a wheel.
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

// TestWheelBucketMembership pins the bucket rules: entries on a shared
// coordinate coalesce into one pending event and fire in registration
// order, same-instant buckets keep the heap's FIFO tie-break, and a later
// Add on a live coordinate joins the existing bucket.
func TestWheelBucketMembership(t *testing.T) {
	sim := New(1)
	w := NewWheel(sim)
	var order []string
	add := func(start Time, label string) {
		w.Add(start, Second, label, func(Time) { order = append(order, label) })
	}
	add(Second, "a")
	add(Second, "b")
	add(2*Second, "c")
	if got := w.Buckets(); got != 2 {
		t.Fatalf("Buckets() = %d, want 2 (a+b coalesced, c separate)", got)
	}
	if got := w.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}
	if got := sim.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2: one pending event per bucket", got)
	}

	sim.RunUntil(Second) // a, b fire; c not yet
	if want := []string{"a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("first tick order = %v, want %v (registration order)", order, want)
	}

	order = nil
	// At 2s both c (initial event, early sequence number) and a+b's bucket
	// (rescheduled at 1s, fresh sequence number) fire: FIFO puts c first —
	// exactly what per-entry tickers would do.
	sim.RunUntil(2 * Second)
	if want := []string{"c", "a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("second tick order = %v, want %v", order, want)
	}

	// An Add on a pending coordinate joins its bucket, after the entries
	// already there, instead of forking a second event.
	add(3*Second, "d")
	add(3*Second, "d2")
	if got, n := w.Buckets(), w.Len(); got != 3 || n != 5 {
		t.Fatalf("after late adds: %d entries in %d buckets, want 5 in 3", n, got)
	}
	if got := sim.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after late adds, want 3", got)
	}
	order = nil
	sim.RunUntil(3 * Second)
	if want := []string{"c", "a", "b", "d", "d2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("third tick order = %v, want %v", order, want)
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
