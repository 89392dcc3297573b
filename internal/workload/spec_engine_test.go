package workload

import (
	"math"
	"testing"

	"repro/internal/simclock"
)

// TestDiurnalShapeBoundaries pins the shape at each piecewise boundary:
// the segments meet (to within the trading-day dip's e^-8 residue) at
// 06:00, 09:00, 17:00 and 22:00, and the weekend plateau matches the
// late-evening level so Friday night rolls into Saturday smoothly.
// Monday 00:00 steps 0.15 -> 0.05 by design (overnight quiet is deeper
// than weekend daytime); the test pins the step so it cannot drift.
func TestDiurnalShapeBoundaries(t *testing.T) {
	eps := simclock.Time(1) // one tick
	boundaries := []simclock.Time{
		6 * simclock.Hour, 9 * simclock.Hour, 17 * simclock.Hour, 22 * simclock.Hour,
	}
	for _, b := range boundaries {
		before, after := DiurnalShape(b-eps), DiurnalShape(b)
		if math.Abs(before-after) > 1e-3 {
			t.Errorf("shape jumps at %v: %v -> %v", b, before, after)
		}
	}
	// Friday 23:59 -> Saturday 00:00: both on the 0.15 plateau.
	fri := 5*simclock.Day - eps
	sat := 5 * simclock.Day
	if DiurnalShape(fri) != 0.15 || DiurnalShape(sat) != 0.15 {
		t.Errorf("weekend transition: fri=%v sat=%v, want 0.15 both sides",
			DiurnalShape(fri), DiurnalShape(sat))
	}
	// Sunday 23:59 -> Monday 00:00: the pinned step down into the
	// overnight trough.
	sun := 7*simclock.Day - eps
	mon := 7 * simclock.Day
	if DiurnalShape(sun) != 0.15 {
		t.Errorf("Sunday night = %v, want 0.15", DiurnalShape(sun))
	}
	if DiurnalShape(mon) != 0.05 {
		t.Errorf("Monday midnight = %v, want 0.05", DiurnalShape(mon))
	}
}

// TestShapedAmplitudeClamp: amplitudes above 1 exaggerate the swing and
// clamp at zero instead of going negative; 1 is bit-exact; 0 is flat.
func TestShapedAmplitudeClamp(t *testing.T) {
	if got := shaped(0.05, 2); got != 0 {
		t.Errorf("shaped(0.05, 2) = %v, want 0 (clamped)", got)
	}
	if got := shaped(0.5, 2); got != 0 {
		t.Errorf("shaped(0.5, 2) = %v, want 0 (exactly at the clamp)", got)
	}
	if got := shaped(0.9, 2); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("shaped(0.9, 2) = %v, want 0.8", got)
	}
	for _, s := range []float64{0, 0.05, 0.3333333, 1} {
		if got := shaped(s, 1); got != s {
			t.Errorf("shaped(%v, 1) = %v, want bit-exact pass-through", s, got)
		}
		if got := shaped(s, 0); got != 1 {
			t.Errorf("shaped(%v, 0) = %v, want flat 1", s, got)
		}
	}
}

// crashAndRecover crashes tx1 mid-window and forces it back up, the
// sequence that wipes the host's feed disk activity.
func crashAndRecover(r *rig, at simclock.Time) {
	r.sim.RunUntil(at)
	tx := r.dc.Host("tx1")
	tx.Crash()
	tx.ForceUp(r.sim.Now())
}

// TestFeedLoadRestoredAfterRecovery: a transaction host that crashes
// and recovers gets its feed disk load back at the next refresh tick.
func TestFeedLoadRestoredAfterRecovery(t *testing.T) {
	r := newRig(t)
	r.gen.Start()
	crashAndRecover(r, 4*simclock.Hour+1*simclock.Minute)
	if busy := r.dc.Host("tx1").IOStat().BusyPct; busy != 0 {
		t.Fatalf("crash should zero feed disk activity, got %v", busy)
	}
	// Past the next 15-minute refresh.
	r.sim.RunUntil(4*simclock.Hour + 31*simclock.Minute)
	if busy := r.dc.Host("tx1").IOStat().BusyPct; busy == 0 {
		t.Error("feed load not restored after recovery")
	}
}

// TestFeedLoadRestoredWithDomains: tier-domain sites share the refresh
// path, so their recovered hosts get the feed load back too.
func TestFeedLoadRestoredWithDomains(t *testing.T) {
	r := newRig(t)
	r.gen.SetDomains(map[string]string{"tx1": "feeds"},
		map[string]TierLoad{"feeds": {Share: 1, Batch: 1, Feed: 1, Amp: 1}})
	r.gen.Start()
	crashAndRecover(r, 4*simclock.Hour+1*simclock.Minute)
	r.sim.RunUntil(4*simclock.Hour + 31*simclock.Minute)
	if busy := r.dc.Host("tx1").IOStat().BusyPct; busy == 0 {
		t.Error("feed load not restored after recovery with domains installed")
	}
}

// TestLowRateClassSubmits: a class at a sub-1/hour rate draws
// interarrival times, so it submits at its true long-run rate instead
// of flooring its hourly expectation to zero.
func TestLowRateClassSubmits(t *testing.T) {
	r := newRig(t)
	r.gen.cfg.DayJobsPerHour = 0.5
	r.gen.cfg.OvernightJobs = 0
	r.gen.SetSpec(onePoisson("lowrate"))
	r.gen.Start()
	r.sim.RunUntil(4 * simclock.Day)
	if n := r.gen.JobsSubmitted; n == 0 {
		t.Error("class submitted nothing at 0.5/hour; interarrival draws must not truncate")
	}
}

// TestPaperSpecVolumeMatchesAnalytic: over four weeks the paper spec's
// submission count lands within 10 % of its analytic offered volume,
// Σ share × (1 + burst × burst_prob) × DayJobsPerHour × ∫ shaped(DiurnalShape,
// amplitude) dt, integrated here at 1-minute steps. The quants' bursts
// and feed-replay's flattened amplitude put that volume well above the
// bare DayJobsPerHour × ∫ DiurnalShape dt.
func TestPaperSpecVolumeMatchesAnalytic(t *testing.T) {
	r := newRig(t)
	r.gen.cfg.OvernightJobs = 0
	start := r.sim.Now()
	end := start + 28*simclock.Day
	r.gen.Start()
	r.sim.RunUntil(end)

	rate := r.gen.cfg.DayJobsPerHour
	classes := PaperSpec().Classes
	want, bare := 0.0, 0.0
	for at := start; at < end; at += simclock.Minute {
		shape := DiurnalShape(at)
		bare += rate * shape / 60
		for _, c := range classes {
			want += c.Share * (1 + float64(c.Burst)*c.BurstProb) * rate * shaped(shape, c.amp()) / 60
		}
	}
	got := float64(r.gen.JobsSubmitted)
	t.Logf("submitted %.0f, analytic %.1f, bare shaped rate %.1f", got, want, bare)
	if math.Abs(got-want) > 0.1*want {
		t.Errorf("paper spec submitted %.0f jobs in 4 weeks, want %.1f ± 10 %%", got, want)
	}
}

// TestSpecDeterminism: two rigs with the same seed and spec replay the
// same submission count — per-class forked streams keep the engine on
// the campaign's byte-identity contract.
func TestSpecDeterminism(t *testing.T) {
	run := func() int {
		r := newRig(t)
		r.gen.SetSpec(FlashCrowdSpec())
		r.gen.Start()
		r.sim.RunUntil(3 * simclock.Day)
		return r.gen.JobsSubmitted
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, same spec, different submissions: %d vs %d", a, b)
	}
	if a == 0 {
		t.Error("spec-driven generator submitted nothing")
	}
}

// TestFlashCrowdBoostsWindow: inside the morning-rush window the
// flash-crowd spec must submit measurably more than the plain paper
// spec, and nothing outside the window may differ in rate law.
func TestFlashCrowdBoostsWindow(t *testing.T) {
	inWindow := func(spec Spec) int {
		r := newRig(t)
		r.gen.cfg.OvernightJobs = 0
		r.gen.SetSpec(spec)
		r.gen.Start()
		r.sim.RunUntil(simclock.Day + 9*simclock.Hour + 30*simclock.Minute)
		before := r.gen.JobsSubmitted
		r.sim.RunUntil(simclock.Day + 13*simclock.Hour + 30*simclock.Minute)
		return r.gen.JobsSubmitted - before
	}
	plain := inWindow(PaperSpec())
	surged := inWindow(FlashCrowdSpec())
	if surged <= plain {
		t.Errorf("flash crowd window submitted %d jobs vs %d plain; surge had no effect", surged, plain)
	}
}

// TestFlashCrowdBoostsAmbience: the crowd also hammers the front-end
// GUIs — ambience at the surge peak beats the plain spec's.
func TestFlashCrowdBoostsAmbience(t *testing.T) {
	ambience := func(spec Spec) float64 {
		r := newRig(t)
		r.gen.cfg.DayJobsPerHour = 0
		r.gen.cfg.OvernightJobs = 0
		r.gen.SetSpec(spec)
		r.gen.Start()
		r.sim.RunUntil(simclock.Day + 11*simclock.Hour)
		return r.dc.Host("feA").CPUUtilisation()
	}
	plain := ambience(PaperSpec())
	surged := ambience(FlashCrowdSpec())
	if surged <= plain {
		t.Errorf("flash crowd ambience %v vs plain %v; surge had no effect", surged, plain)
	}
}

// TestSpecSurvivesReset: like the domains, the installed spec derives
// from the topology, so Reset keeps it and a restarted generator keeps
// running its classes.
func TestSpecSurvivesReset(t *testing.T) {
	r := newRig(t)
	r.gen.SetSpec(FlashCrowdSpec())
	r.gen.Start()
	r.sim.RunUntil(simclock.Day)
	r.reset()
	if r.gen.spec.Name != "flashcrowd" {
		t.Fatalf("Reset replaced the installed spec with %q", r.gen.spec.Name)
	}
	before := r.gen.JobsSubmitted
	if before != 0 {
		t.Fatalf("Reset left JobsSubmitted at %d", before)
	}
	r.gen.Start()
	r.sim.RunUntil(2 * simclock.Day)
	if r.gen.JobsSubmitted == 0 {
		t.Error("restarted spec generator submitted nothing")
	}
}
