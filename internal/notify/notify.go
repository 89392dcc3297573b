// Package notify simulates the notification path the paper's agents and
// monitoring tools use to reach human administrators ("they notify human
// administrators, usually via email or SMS"). Every notification goes out
// as an email; nothing here models SMS.
package notify

import "repro/internal/simclock"

// Notification is one delivered message.
type Notification struct {
	At      simclock.Time
	From    string
	To      string
	Subject string
	Body    string
	Tag     string // machine-readable classification, e.g. "threshold-exceeded"
}

// Bus records notifications.
type Bus struct {
	sim  *simclock.Sim
	sent []Notification
}

// NewBus returns an empty bus.
func NewBus(sim *simclock.Sim) *Bus { return &Bus{sim: sim} }

// Reset drops all recorded notifications, returning the bus to the state
// NewBus gives it. Site reuse calls this between trials.
func (b *Bus) Reset() { b.sent = b.sent[:0] }

// Send delivers a notification immediately (delivery latency is negligible
// against the paper's hour-scale dynamics).
func (b *Bus) Send(from, to, subject, body, tag string) {
	b.sent = append(b.sent, Notification{
		At: b.sim.Now(), From: from, To: to,
		Subject: subject, Body: body, Tag: tag,
	})
}

// History returns every notification sent so far.
func (b *Bus) History() []Notification { return b.sent }

// CountByTag reports how many notifications carry the given tag.
func (b *Bus) CountByTag(tag string) int {
	n := 0
	for _, x := range b.sent {
		if x.Tag == tag {
			n++
		}
	}
	return n
}
