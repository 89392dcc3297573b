package notify

import (
	"slices"
	"testing"
)

func TestSendAndHistory(t *testing.T) {
	b := NewBus()
	b.Send("service-fault")
	b.Send("threshold")
	if h := b.History(); !slices.Equal(h, []string{"service-fault", "threshold"}) {
		t.Fatalf("history = %v", h)
	}
	b.Reset()
	if h := b.History(); len(h) != 0 {
		t.Errorf("history after Reset = %v", h)
	}
}

// TestCountByTagAndSince: CountByTag counts every send of a tag, and the
// sends after a mark in History are the tail past the mark.
func TestCountByTagAndSince(t *testing.T) {
	b := NewBus()
	b.Send("threshold")
	mark := len(b.History())
	b.Send("threshold")
	b.Send("fault")
	if b.CountByTag("threshold") != 2 || b.CountByTag("fault") != 1 || b.CountByTag("none") != 0 {
		t.Error("CountByTag broken")
	}
	if since := b.History()[mark:]; !slices.Equal(since, []string{"threshold", "fault"}) {
		t.Errorf("notifications since the mark = %v, want [threshold fault]", since)
	}
}
