// Package notify simulates the email/SMS notification path the paper's
// agents and monitoring tools use to reach human administrators ("they
// notify human administrators, usually via email or SMS").
package notify

import (
	"fmt"

	"repro/internal/simclock"
)

// Channel is a delivery channel.
type Channel string

// Email is the channel every notification goes out on. The paper's
// agents also reach administrators by SMS, which nothing here models.
const Email Channel = "email"

// Notification is one delivered message.
type Notification struct {
	At      simclock.Time
	Channel Channel
	From    string
	To      string
	Subject string
	Body    string
	Tag     string // machine-readable classification, e.g. "threshold-exceeded"
}

func (n Notification) String() string {
	return fmt.Sprintf("[%v] %s %s -> %s: %s", n.At, n.Channel, n.From, n.To, n.Subject)
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
func (b *Bus) Send(ch Channel, from, to, subject, body, tag string) Notification {
	n := Notification{
		At: b.sim.Now(), Channel: ch, From: from, To: to,
		Subject: subject, Body: body, Tag: tag,
	}
	b.sent = append(b.sent, n)
	return n
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
