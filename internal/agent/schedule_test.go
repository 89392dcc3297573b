package agent

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/simclock"
)

func TestQuantizePhase(t *testing.T) {
	period := 8 * simclock.Minute
	cases := []struct {
		draw  simclock.Time
		slots int
		want  simclock.Time
	}{
		{0, 8, simclock.Minute},                          // first slot fires at its end
		{simclock.Minute - 1, 8, simclock.Minute},        // still slot 0
		{simclock.Minute, 8, 2 * simclock.Minute},        // slot boundary belongs to the next slot
		{period - 1, 8, period},                          // last slot fires a full period out
		{period - 1, 1, period},                          // one slot = everything at period
		{3*simclock.Minute + 17, 4, 4 * simclock.Minute}, // slot width 2min, slot 1 ends at 4min
	}
	for _, c := range cases {
		if got := QuantizePhase(c.draw, period, c.slots); got != c.want {
			t.Errorf("QuantizePhase(%v, %v, %d) = %v, want %v", c.draw, period, c.slots, got, c.want)
		}
	}
	// Degenerate grid: a period shorter than the slot count keeps the raw
	// draw (slot width zero would otherwise collapse every phase to zero).
	if got := QuantizePhase(3, 5, 10); got != 3 {
		t.Errorf("degenerate QuantizePhase = %v, want the raw draw 3", got)
	}
	// Quantized phases are always in (0, period].
	for draw := simclock.Time(0); draw < period; draw += period / 13 {
		q := QuantizePhase(draw, period, 8)
		if q <= 0 || q > period {
			t.Fatalf("QuantizePhase(%v) = %v outside (0, %v]", draw, q, period)
		}
	}
}

// slotRig builds five faulty agents on one rig, with their phases
// quantized onto a 4-slot grid, and wires their crons either to one shared
// wheel (slotted dispatch) or each to a ticker of its own.
func slotRig(t *testing.T, wheel bool) (*rig, []*Agent) {
	t.Helper()
	r := newRig()
	w := simclock.NewWheel(r.sim)
	period := 5 * simclock.Minute
	var agents []*Agent
	for i := 0; i < 5; i++ {
		a := r.agent(t, Config{Name: fmt.Sprintf("cpu%d", i), Category: CatResource, Parts: faultParts(true)})
		agents = append(agents, a)
		phase := QuantizePhase(simclock.Time(i)*37*simclock.Second, period, 4)
		if wheel {
			a.ScheduleOn(w, phase, period)
		} else {
			a.Schedule(r.sim, phase, period)
		}
	}
	return r, agents
}

// TestSlottedWheelMatchesTickers pins slotted dispatch to the serial
// per-agent path: at the same quantized phases, period and parts, agents
// that share a wheel bucket run at the same instants and in the same
// order as agents on tickers of their own, so counters, flags and
// activity logs land identically after several cron periods.
func TestSlottedWheelMatchesTickers(t *testing.T) {
	rTick, ticked := slotRig(t, false)
	rWheel, wheeled := slotRig(t, true)
	end := 7 * 5 * simclock.Minute
	rTick.sim.RunUntil(end)
	rWheel.sim.RunUntil(end)
	for i := range ticked {
		tc, wc := ticked[i].Counters(), wheeled[i].Counters()
		if tc != wc {
			t.Errorf("agent %d: ticker counters %+v != wheel counters %+v", i, tc, wc)
		}
		if tc.Runs == 0 {
			t.Errorf("agent %d never ran", i)
		}
		if tf, wf := ticked[i].Flags(), wheeled[i].Flags(); !slices.Equal(tf, wf) {
			t.Errorf("agent %d: ticker flags %v != wheel flags %v", i, tf, wf)
		}
		if tl, wl := ticked[i].LogLines(), wheeled[i].LogLines(); !slices.Equal(tl, wl) {
			t.Errorf("agent %d: ticker log %q != wheel log %q", i, tl, wl)
		}
	}
}

// TestLockContention pins the SkippedLock path when two agents of the same
// type (same name, hence one shared lock file) wake at one instant: the
// first wins the lock and runs, the second counts a skip — identically
// on per-agent tickers (serial) and batched into one slot's wheel bucket.
func TestLockContention(t *testing.T) {
	run := func(t *testing.T, wheel bool) []*Agent {
		t.Helper()
		r := newRig()
		w := simclock.NewWheel(r.sim)
		period := 5 * simclock.Minute
		var agents []*Agent
		for i := 0; i < 2; i++ {
			a := r.agent(t, Config{Name: "cpu", Category: CatResource, Parts: okParts()})
			agents = append(agents, a)
			if wheel {
				a.ScheduleOn(w, QuantizePhase(0, period, 1), period) // one slot: both share the bucket
			} else {
				a.Schedule(r.sim, period, period)
			}
		}
		r.sim.RunUntil(3 * period)
		return agents
	}

	check := func(t *testing.T, agents []*Agent) {
		t.Helper()
		first, second := agents[0].Counters(), agents[1].Counters()
		if first.Runs != 3 || first.SkippedLock != 0 {
			t.Errorf("winner counters = %+v, want 3 runs, 0 skips", first)
		}
		if second.Runs != 0 || second.SkippedLock != 3 {
			t.Errorf("loser counters = %+v, want 0 runs, 3 skips", second)
		}
		// The winner's clean runs leave exactly the shared ok flag.
		if !agents[0].HasFlag("ok") {
			t.Errorf("flags = %v, want ok.flag", agents[0].Flags())
		}
	}

	t.Run("serial", func(t *testing.T) { check(t, run(t, false)) })
	t.Run("batched", func(t *testing.T) { check(t, run(t, true)) })
}

func TestSanitizeFastPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"memory.scanrate", "memory-scanrate"},
		{"clean_aspect-01", "clean_aspect-01"},
		{"service.ORA-01", "service-ORA-01"},
		{"", ""},
		{"héllo", "h-llo"}, // the multi-byte rune fails the byte scan, maps to one dash
		{"ALLCLEAN", "ALLCLEAN"},
	}
	for _, c := range cases {
		if got := sanitize(c.in); got != c.want {
			t.Errorf("sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// The clean fast path must neither allocate nor copy.
	clean := "clean_aspect-01"
	if allocs := testing.AllocsPerRun(100, func() { _ = sanitize(clean) }); allocs != 0 {
		t.Errorf("sanitize(clean) allocates %.0f times per run, want 0", allocs)
	}
}

var benchAspect = "service_availability" // package-level so the compiler cannot fold the call

func BenchmarkSanitizeClean(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sanitize(benchAspect)
	}
}

func BenchmarkSanitizeDirty(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sanitize("service.ORA-01")
	}
}
