// Package notify simulates the notification path the paper's agents and
// monitoring tools use to reach human administrators ("they notify human
// administrators, usually via email or SMS"). Every notification goes out
// as an email; nothing here models SMS. The bus records each one by its
// tag, the only part of a notification any output reads.
package notify

// Bus records notifications.
type Bus struct {
	sent []string
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Reset drops all recorded notifications, returning the bus to the state
// NewBus gives it. Site reuse calls this between trials.
func (b *Bus) Reset() { b.sent = b.sent[:0] }

// Send delivers a notification immediately (delivery latency is negligible
// against the paper's hour-scale dynamics). The tag is its machine-readable
// classification, e.g. "threshold-exceeded".
func (b *Bus) Send(tag string) { b.sent = append(b.sent, tag) }

// History returns the tag of every notification sent so far, in send
// order.
func (b *Bus) History() []string { return b.sent }

// CountByTag reports how many notifications carry the given tag.
func (b *Bus) CountByTag(tag string) int {
	n := 0
	for _, x := range b.sent {
		if x == tag {
			n++
		}
	}
	return n
}
