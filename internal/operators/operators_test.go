package operators

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

func TestDetectionDelayWindows(t *testing.T) {
	team := NewTeam(simclock.NewRand(1))
	sample := func(at simclock.Time) simclock.Time {
		var sum simclock.Time
		const n = 500
		for i := 0; i < n; i++ {
			sum += team.DetectionDelay(at)
		}
		return sum / n
	}
	day := sample(2*simclock.Day + 11*simclock.Hour)     // Wednesday 11:00
	night := sample(2*simclock.Day + 23*simclock.Hour)   // Wednesday 23:00
	weekend := sample(5*simclock.Day + 11*simclock.Hour) // Saturday 11:00
	if day < 45*simclock.Minute || day > 75*simclock.Minute {
		t.Errorf("day mean = %v, want ~1h", day)
	}
	if night < 8*simclock.Hour || night > 12*simclock.Hour {
		t.Errorf("overnight mean = %v, want ~10h", night)
	}
	if weekend < 20*simclock.Hour || weekend > 30*simclock.Hour {
		t.Errorf("weekend mean = %v, want ~25h", weekend)
	}
	if !(day < night && night < weekend) {
		t.Errorf("ordering broken: %v %v %v", day, night, weekend)
	}
}

func TestRepairDelayPaths(t *testing.T) {
	team := NewTeam(simclock.NewRand(2))
	dispatch := func(cat metrics.Category) simclock.Time {
		return team.DispatchDelay(0, cat, "db001", "service.ORA-01")
	}
	// Force no escalation: uniform restart window.
	team.escalationP[metrics.CatLSF] = 0
	for i := 0; i < 200; i++ {
		d := dispatch(metrics.CatLSF)
		if d < 30*simclock.Minute || d > 2*simclock.Hour {
			t.Fatalf("restart delay out of window: %v", d)
		}
	}
	// Force escalation: mean ~4h.
	team.escalationP[metrics.CatHardware] = 1
	var sum simclock.Time
	const n = 500
	for i := 0; i < n; i++ {
		sum += dispatch(metrics.CatHardware)
	}
	mean := sum / n
	if mean < 3*simclock.Hour || mean > 5*simclock.Hour {
		t.Errorf("escalated mean = %v, want ~4h", mean)
	}
}

func TestEscalationProbabilitiesOrdering(t *testing.T) {
	team := NewTeam(simclock.NewRand(3))
	if team.escalationP[metrics.CatHardware] <= team.escalationP[metrics.CatLSF] {
		t.Error("hardware should escalate more than LSF faults")
	}
	for _, c := range metrics.Categories {
		p, ok := team.escalationP[c]
		if !ok || p < 0 || p > 1 {
			t.Errorf("escalation probability out of range for %s: %v", c, p)
		}
	}
}

func TestDefaultTimingMatchesPaper(t *testing.T) {
	tm := DefaultTiming()
	if tm.DetectDay != simclock.Hour || tm.DetectWeekend != 25*simclock.Hour ||
		tm.DetectOvernight != 10*simclock.Hour || tm.EscalatedMean != 4*simclock.Hour ||
		tm.RestartMax != 2*simclock.Hour {
		t.Errorf("timing constants drifted from the paper: %+v", tm)
	}
}
