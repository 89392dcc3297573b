package simclock

import (
	"fmt"
	"reflect"
	"testing"
)

// genDeepScript is genScript at depth: 2000–2999 roots on 50 instants keep
// the 4-ary queue five or six levels deep, up to twenty tickers keep their
// lanes busy, and the run goes through RunUntil in uneven quarter-second
// chunks — some ending on an instant or a lane head, some between two,
// some empty — with a few roots cancelled after each chunk, whether they
// are still pending, already fired or already cancelled.
func genDeepScript(rng *splitmix) script {
	sc := genScriptN(rng, 2000+rng.intn(1000), 50)
	sc.genChunks(rng, 55*Second, 3*Second)
	return sc
}

// TestDeepScheduleMatchesModel holds the queue to the reference engine at
// depth: thousands of pending events, Schedule, Post and PostFixed mixed,
// children at +0 and +Δ, tickers and wheel buckets re-arming in shared
// lanes, cancellations before and between RunUntil chunks, so RunUntil's
// peek, break and cancelled-front paths all run — from the heap and from
// the lanes — against the model's firing order, Cancel results and
// pending counts.
func TestDeepScheduleMatchesModel(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := splitmix(trial*104729 + 17)
		sc := genDeepScript(&rng)
		got := sc.runOn(New(1))
		want := sc.runOnModel()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: deep run diverged from the model\n sim:   %+v\n model: %+v", trial, got, want)
		}
	}
}

// TestResetThenReuseMatchesModel: Reset drops a deep, half-run queue with
// busy lanes — handles to the dropped events no longer cancel, nothing
// stays pending — and the reused Sim then runs a new script exactly as
// the model does from scratch.
func TestResetThenReuseMatchesModel(t *testing.T) {
	rng := splitmix(0x5eed)
	first := genDeepScript(&rng)
	sim := New(1)
	var dropped []*Event
	for _, ev := range first.roots {
		if ev.post {
			sim.Post(ev.at, "first", func(Time) {})
			continue
		}
		h := sim.Schedule(ev.at, "first", func(Time) {})
		if ev.at > 25*Second {
			dropped = append(dropped, h)
		}
	}
	for i, tk := range first.tickers {
		sim.Every(tk.start, tk.period, "first", func(Time) {
			sim.PostFixed(fixedDelays[i%len(fixedDelays)], "first", func(Time) {})
		})
	}
	w := NewWheel(sim)
	for _, en := range first.entries {
		w.Add(en.start, en.period, "first", func(Time) {})
	}
	sim.RunUntil(25 * Second)
	inLanes := 0
	for i := range sim.lanes {
		inLanes += sim.lanes[i].n
	}
	if inLanes == 0 || len(dropped) == 0 || sim.Pending() == inLanes {
		t.Fatalf("%d events in lanes, %d on the heap, %d dropped handles at Reset; the test is vacuous",
			inLanes, sim.Pending()-inLanes, len(dropped))
	}
	sim.Reset(1)
	if got := sim.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Reset, want 0", got)
	}
	if sim.Now() != 0 || sim.Fired() != 0 {
		t.Fatalf("after Reset: Now = %v, Fired = %d; want 0, 0", sim.Now(), sim.Fired())
	}
	for i, h := range dropped {
		if h.Cancel() {
			t.Fatalf("Cancel on dropped handle %d reported it pending", i)
		}
	}

	second := genDeepScript(&rng)
	got := second.runOn(sim)
	want := second.runOnModel()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused Sim diverged from the model\n sim:   %+v\n model: %+v", got, want)
	}
}

// TestLaneOutOfOrderPushFallsBackToHeap: an event that would pop before
// its lane's tail goes on the heap instead — which an event at now + d
// never does, so only a direct push can show it — and still fires in
// (at, seq) order among the lane's events.
func TestLaneOutOfOrderPushFallsBackToHeap(t *testing.T) {
	s := New(1)
	i := s.laneFor(10 * Second)
	var got []string
	push := func(at Time, name string) {
		e := &Event{at: at, seq: s.seq, fn: func(Time) { got = append(got, name) }, label: name}
		s.seq++
		s.pushLane(e, i)
	}
	push(10*Second, "a")
	push(20*Second, "b")
	push(15*Second, "c") // behind the tail: the heap
	push(20*Second, "d") // same time as the tail, later seq: the lane
	if len(s.queue) != 1 || s.lanes[i].n != 3 || s.Pending() != 4 {
		t.Fatalf("heap %d, lane %d, Pending %d; want 1, 3, 4", len(s.queue), s.lanes[i].n, s.Pending())
	}
	s.RunUntil(20 * Second)
	if want := []string{"a", "c", "b", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestPostFixedNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PostFixed with a negative delay should panic")
		}
	}()
	New(1).PostFixed(-Second, "past", func(Time) {})
}

// agentsYearQueue is the event queue of an agents year in miniature: n
// cron tickers on one 5-minute period at random phases, each tick posting
// its run's reaper 4 s on. Every re-arm and every reaper rides a lane.
func agentsYearQueue(n int) *Sim {
	s := New(1)
	reap := func(Time) {}
	tick := func(Time) { s.PostFixed(4*Second, "reap", reap) }
	for range n {
		s.Every(s.Rand().UniformDuration(0, 5*Minute), 5*Minute, "cron", tick)
	}
	return s
}

// runNext fires the next pending event (and any others due at the same
// instant) through RunUntil.
func runNext(s *Sim) {
	top, _ := s.front()
	s.RunUntil(top.at)
}

// TestLaneSteadyStateAllocs: once the lanes' rings and the freelist have
// grown, ticks, re-arms and fixed-delay posts allocate nothing.
func TestLaneSteadyStateAllocs(t *testing.T) {
	s := agentsYearQueue(500)
	s.RunUntil(10 * Minute)
	if allocs := testing.AllocsPerRun(2000, func() { runNext(s) }); allocs != 0 {
		t.Errorf("steady-state RunUntil: %v allocs, want 0", allocs)
	}
}

// BenchmarkEventQueue is the hold model at the two queue depths the
// campaigns run at (simclock.pending_max of the manual campaign and of
// the paper agents year): each operation fires the earliest event, whose
// callback posts one replacement a uniform 0–1 h later, so the depth
// stays fixed. Post recycles the fired event, so it allocates nothing.
// The tickers=500 case is the agents year's shape instead: 500 cron
// tickers on one period, each re-armed and each posting a +4 s reaper,
// all in lanes, also at 0 allocs/op.
func BenchmarkEventQueue(b *testing.B) {
	for _, pending := range []int{155, 1034} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := New(1)
			rng := s.Rand()
			var hold func(now Time)
			hold = func(now Time) { s.Post(now+rng.UniformDuration(0, Hour), "hold", hold) }
			for i := 0; i < pending; i++ {
				hold(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runNext(s)
			}
		})
	}
	b.Run("tickers=500", func(b *testing.B) {
		s := agentsYearQueue(500)
		s.RunUntil(10 * Minute)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runNext(s)
		}
	})
}
