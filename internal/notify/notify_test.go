package notify

import (
	"testing"

	"repro/internal/simclock"
)

func TestSendAndHistory(t *testing.T) {
	sim := simclock.New(1)
	b := NewBus(sim)
	sim.Schedule(simclock.Hour, "send", func(simclock.Time) {
		b.Send("intelliagent@db001", "oncall@site", "ORA-01 down", "restarting", "service-fault")
	})
	sim.RunUntil(simclock.Hour)
	h := b.History()
	if len(h) != 1 {
		t.Fatalf("history = %d", len(h))
	}
	if h[0].At != simclock.Hour || h[0].Tag != "service-fault" {
		t.Errorf("notification: %+v", h[0])
	}
}

func TestCountByTagAndSince(t *testing.T) {
	sim := simclock.New(1)
	b := NewBus(sim)
	b.Send("a", "b", "x", "", "threshold")
	sim.Schedule(simclock.Hour, "later", func(simclock.Time) {
		b.Send("a", "b", "y", "", "threshold")
		b.Send("a", "b", "z", "", "fault")
	})
	sim.RunUntil(simclock.Hour)
	if b.CountByTag("threshold") != 2 || b.CountByTag("fault") != 1 || b.CountByTag("none") != 0 {
		t.Error("CountByTag broken")
	}
	since := 0 // notifications at or after 1h
	for _, n := range b.History() {
		if n.At >= simclock.Hour {
			since++
		}
	}
	if since != 2 {
		t.Errorf("%d notifications since 1h, want 2", since)
	}
}
