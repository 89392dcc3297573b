package agent

import (
	"fmt"
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
	// draw (slot width zero would otherwise collapse every phase to zero,
	// which AddPrepared rejects).
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

// schedRig builds n same-parts agents on one rig and schedules them either
// per-agent on their own cron tickers (serial reference) or through the
// batching Scheduler, with the phases pre-quantized so both paths fire at
// identical instants.
func schedRig(t *testing.T, n, slots int, pool *simclock.Pool, batch bool, parts func() Parts) (*rig, []*Agent) {
	t.Helper()
	r := newRig()
	var sched *Scheduler
	if batch {
		sched = NewScheduler(r.sim, pool, slots)
	}
	period := 5 * simclock.Minute
	agents := make([]*Agent, 0, n)
	for i := 0; i < n; i++ {
		a := r.agent(t, Config{Name: fmt.Sprintf("cpu%d", i), Category: CatResource, Parts: parts()})
		agents = append(agents, a)
		phase := simclock.Time(i) * 37 * simclock.Second
		if batch {
			sched.Add(a, phase, period)
		} else {
			a.Schedule(r.sim, QuantizePhase(phase, period, slots), period)
		}
	}
	if batch {
		sched.Start()
	}
	return r, agents
}

// TestSchedulerMatchesSerial pins the batched observe/apply dispatch to the
// serial per-agent path: same quantized phases, same period, same parts —
// counters must land identically after several cron periods.
func TestSchedulerMatchesSerial(t *testing.T) {
	for _, shards := range []int{0, 2, 4} {
		var pool *simclock.Pool
		if shards > 1 {
			pool = simclock.NewPool(shards)
		}
		parts := func() Parts { return faultParts(true) }
		rSerial, serial := schedRig(t, 5, 4, nil, false, parts)
		rBatch, batched := schedRig(t, 5, 4, pool, true, parts)
		end := 7 * 5 * simclock.Minute
		rSerial.sim.RunUntil(end)
		rBatch.sim.RunUntil(end)
		for i := range serial {
			sc, bc := serial[i].Counters(), batched[i].Counters()
			if sc != bc {
				t.Errorf("shards=%d agent %d: serial counters %+v != batched %+v", shards, i, sc, bc)
			}
			if sc.Runs == 0 && sc.SkippedLock == 0 {
				t.Errorf("shards=%d agent %d never woke", shards, i)
			}
		}
	}
}

// TestLockContention pins the SkippedLock path when two agents of the same
// type (same name, hence one shared lock file) race one cron slot: the
// first wins the lock and runs, the second counts a skip — identically
// under serial per-agent dispatch and under sharded batch dispatch, where
// both observe an un-locked world concurrently and the loser's apply-time
// revalidation catches the lock the winner just wrote.
func TestLockContention(t *testing.T) {
	run := func(t *testing.T, batch bool, pool *simclock.Pool) []*Agent {
		t.Helper()
		r := newRig()
		period := 5 * simclock.Minute
		var agents []*Agent
		var sched *Scheduler
		if batch {
			sched = NewScheduler(r.sim, pool, 1)
		}
		for i := 0; i < 2; i++ {
			a := r.agent(t, Config{Name: "cpu", Category: CatResource, Parts: okParts()})
			agents = append(agents, a)
			if batch {
				sched.Add(a, 0, period) // one slot: both quantize onto the same batch
			} else {
				a.Schedule(r.sim, period, period)
			}
		}
		if batch {
			sched.Start()
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

	t.Run("serial", func(t *testing.T) { check(t, run(t, false, nil)) })
	t.Run("batched", func(t *testing.T) { check(t, run(t, true, nil)) })
	t.Run("batched-sharded", func(t *testing.T) { check(t, run(t, true, simclock.NewPool(2))) })
}

// TestObserveApplyMatchesRun drives one faulty agent through the split
// protocol by hand and checks the full lifecycle (flags, counters, heal)
// against a twin driven through Run.
func TestObserveApplyMatchesRun(t *testing.T) {
	rRun := newRig()
	aRun := rRun.agent(t, Config{Name: "svc", Category: CatService, Parts: faultParts(true)})
	aRun.Run(rRun.sim)

	rSplit := newRig()
	aSplit := rSplit.agent(t, Config{Name: "svc", Category: CatService, Parts: faultParts(true)})
	aSplit.Observe(rSplit.sim.Now())
	aSplit.Apply(rSplit.sim, rSplit.sim.Now())

	if cr, cs := aRun.Counters(), aSplit.Counters(); cr != cs {
		t.Errorf("Run counters %+v != Observe/Apply counters %+v", cr, cs)
	}
	for _, flag := range []string{"fault", "healed"} {
		if aRun.HasFlag(flag) != aSplit.HasFlag(flag) {
			t.Errorf("flag %q: Run %v, split %v", flag, aRun.HasFlag(flag), aSplit.HasFlag(flag))
		}
	}
	// A second Apply without an Observe is a no-op (obsIdle).
	before := aSplit.Counters()
	aSplit.Apply(rSplit.sim, rSplit.sim.Now())
	if aSplit.Counters() != before {
		t.Error("Apply without Observe should be a no-op")
	}
}

// TestObserveDownAndLocked pins the early-exit observations.
func TestObserveDownAndLocked(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{Name: "cpu", Category: CatResource, Parts: okParts()})

	_ = r.host.FS.WriteLines(InstallDir+"/cpu.lock", []string{"pid=1"})
	a.Observe(r.sim.Now())
	a.Apply(r.sim, r.sim.Now())
	if c := a.Counters(); c.Runs != 0 || c.SkippedLock != 1 {
		t.Errorf("locked counters = %+v, want 1 skip", c)
	}
	_ = r.host.FS.Remove(InstallDir + "/cpu.lock")

	r.host.Crash()
	a.Observe(r.sim.Now())
	a.Apply(r.sim, r.sim.Now())
	if c := a.Counters(); c.Runs != 0 || c.SkippedLock != 1 {
		t.Errorf("down-host counters = %+v, want no new activity", c)
	}
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
