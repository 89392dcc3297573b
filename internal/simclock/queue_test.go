package simclock

import (
	"fmt"
	"reflect"
	"testing"
)

// genDeepScript is genScript at depth: 2000–2999 roots on 50 instants keep
// the 4-ary queue five or six levels deep, and the run goes through
// RunUntil in uneven half-second chunks — some ending on an instant, some
// between two, some empty — with a few roots cancelled after each chunk,
// whether they are still pending, already fired or already cancelled.
func genDeepScript(rng *splitmix) script {
	sc := genScriptN(rng, 2000+rng.intn(1000), 50)
	var handled []int // roots with a handle to cancel
	for _, ev := range sc.roots {
		if !ev.post {
			handled = append(handled, ev.id)
		}
	}
	sc.lateCancel = map[int][]int{}
	for end := Time(0); end < 55*Second; {
		end += Time(rng.intn(7)) * Second / 2
		k := len(sc.chunks)
		sc.chunks = append(sc.chunks, end)
		for c := rng.intn(4); c > 0; c-- {
			sc.lateCancel[k] = append(sc.lateCancel[k], handled[rng.intn(len(handled))])
		}
	}
	return sc
}

// TestDeepScheduleMatchesModel holds the queue to the reference engine at
// depth: thousands of pending events, Schedule and Post mixed, children at
// +0 and +Δ, cancellations before and between RunUntil chunks, so
// RunUntil's peek, break and cancelled-top paths all run against the
// model's firing order and Cancel results.
func TestDeepScheduleMatchesModel(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := splitmix(trial*104729 + 17)
		sc := genDeepScript(&rng)
		got := sc.runOn(New(1))
		want := sc.runOnModel()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: deep run diverged from the model\n sim:   %v\n model: %v", trial, got, want)
		}
	}
}

// TestResetThenReuseMatchesModel: Reset drops a deep, half-run queue —
// handles to the dropped events no longer cancel, nothing stays pending —
// and the reused Sim then runs a new script exactly as the model does
// from scratch.
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
	sim.RunUntil(25 * Second)
	if sim.Pending() == 0 || len(dropped) == 0 {
		t.Fatal("nothing pending at Reset; the test is vacuous")
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
		t.Fatalf("reused Sim diverged from the model\n sim:   %v\n model: %v", got, want)
	}
}

// BenchmarkEventQueue is the hold model at the two queue depths the
// campaigns run at (simclock.pending_max of the manual campaign and of
// the paper agents year): each operation fires the earliest event, whose
// callback posts one replacement a uniform 0–1 h later, so the depth
// stays fixed. Post recycles the fired event, so it allocates nothing.
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
				s.Step()
			}
		})
	}
}
