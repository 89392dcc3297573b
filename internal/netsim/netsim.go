// Package netsim simulates the paper's two-tier datacentre network: one or
// more public LANs carrying application traffic and a dedicated private
// intelliagent network carrying all agent-related traffic. Messages are
// delivered through simclock events with per-network latency. When the
// private network fails, senders using a Router automatically re-route over
// the public LAN, as the paper's agents do with Unix administration
// commands.
package netsim

import (
	"errors"
	"fmt"

	"repro/internal/simclock"
)

// Errors reported by Send.
var (
	ErrNetworkDown  = errors.New("netsim: network down")
	ErrLinkDown     = errors.New("netsim: host link down")
	ErrNotAttached  = errors.New("netsim: host not attached")
	ErrNoRouteFound = errors.New("netsim: no usable network")
)

// Message is a datagram between named hosts.
type Message struct {
	From    string
	To      string
	Kind    string // e.g. "flag-report", "dgspl-push", "probe", "notify"
	Payload string // flat ASCII, like everything else in the paper
	Bytes   int    // accounted traffic size; 0 means len(Payload)
}

func (m Message) size() int {
	if m.Bytes > 0 {
		return m.Bytes
	}
	if n := len(m.Payload); n > 0 {
		return n
	}
	return 64 // minimum frame
}

// Handler receives delivered messages.
type Handler func(now simclock.Time, msg Message)

// Stats is cumulative traffic accounting for one network.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int
	Bytes     int64
}

// Network is a broadcast domain with uniform latency.
type Network struct {
	name     string
	label    string // the delivery events' label
	sim      *simclock.Sim
	latency  simclock.Time
	jitter   float64
	up       bool
	handlers map[string]Handler
	linkUp   map[string]bool
	stats    Stats
	free     []*delivery // delivered records, reused by the next Send
}

// delivery is one message in flight. Records are pooled per network, and
// each binds its deliver method to fn once, when it is first made, so a
// Send posts a pooled record with no closure and no allocation.
type delivery struct {
	n   *Network
	msg Message
	fn  func(now simclock.Time)
}

// deliver hands the message to the destination's handler, or counts a
// drop when the fabric, the destination's link or its attachment went away
// in flight. The record returns to the pool first, so a handler that sends
// can reuse it.
func (d *delivery) deliver(now simclock.Time) {
	n, msg := d.n, d.msg
	d.msg = Message{}
	n.free = append(n.free, d)
	h, ok := n.handlers[msg.To]
	if !ok || !n.up || !n.linkUp[msg.To] {
		n.stats.Dropped++
		return
	}
	n.stats.Delivered++
	h(now, msg)
}

// New returns an operational network delivering with the given base
// latency. A jitter fraction of e.g. 0.2 spreads latency ±20%.
func New(sim *simclock.Sim, name string, latency simclock.Time, jitter float64) *Network {
	return &Network{
		name:     name,
		label:    "netsim:" + name + ":deliver",
		sim:      sim,
		latency:  latency,
		jitter:   jitter,
		up:       true,
		handlers: make(map[string]Handler),
		linkUp:   make(map[string]bool),
	}
}

// Name reports the network name.
func (n *Network) Name() string { return n.name }

// Up reports whether the network fabric is operational.
func (n *Network) Up() bool { return n.up }

// SetUp raises or drops the whole fabric (switch/firewall failure).
func (n *Network) SetUp(up bool) { n.up = up }

// Stats returns cumulative traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// Reset returns the network to the state New leaves it in — fabric up, no
// attachments, zero counters — keeping map storage and the delivery pool
// allocated. Site reuse calls this between trials and re-attaches the
// skeleton's hosts. A message still in flight is delivered against the
// reset network (a drop, unless its destination was re-attached).
func (n *Network) Reset() {
	n.up = true
	clear(n.handlers)
	clear(n.linkUp)
	n.stats = Stats{}
}

// Attach connects host to the network with its link up. Reattaching
// replaces the handler but preserves link state.
func (n *Network) Attach(host string, h Handler) {
	if _, ok := n.linkUp[host]; !ok {
		n.linkUp[host] = true
	}
	n.handlers[host] = h
}

// Detach removes the host entirely.
func (n *Network) Detach(host string) {
	delete(n.handlers, host)
	delete(n.linkUp, host)
}

// Attached reports whether host is connected.
func (n *Network) Attached(host string) bool {
	_, ok := n.handlers[host]
	return ok
}

// SetLink raises or drops a single host's link (NIC or cable failure).
func (n *Network) SetLink(host string, up bool) {
	if _, ok := n.linkUp[host]; ok {
		n.linkUp[host] = up
	}
}

// LinkUp reports the host's link state.
func (n *Network) LinkUp(host string) bool { return n.linkUp[host] }

// Usable reports whether a message from one host to another could be
// delivered right now.
func (n *Network) Usable(from, to string) bool {
	return n.up && n.Attached(from) && n.Attached(to) && n.linkUp[from] && n.linkUp[to]
}

// Send queues msg for delivery after the network latency. Errors are
// returned synchronously when the fabric, either link, or attachment is
// missing — the sender observes failure exactly as a Unix tool observes a
// send(2) error — and delivery itself can still fail (counted as a drop)
// if the destination link drops in flight.
func (n *Network) Send(msg Message) error {
	if !n.up {
		return fmt.Errorf("%w: %s", ErrNetworkDown, n.name)
	}
	if !n.Attached(msg.From) {
		return fmt.Errorf("%w: %s on %s", ErrNotAttached, msg.From, n.name)
	}
	if !n.Attached(msg.To) {
		return fmt.Errorf("%w: %s on %s", ErrNotAttached, msg.To, n.name)
	}
	if !n.linkUp[msg.From] {
		return fmt.Errorf("%w: %s on %s", ErrLinkDown, msg.From, n.name)
	}
	if !n.linkUp[msg.To] {
		return fmt.Errorf("%w: %s on %s", ErrLinkDown, msg.To, n.name)
	}
	n.stats.Sent++
	n.stats.Bytes += int64(msg.size())
	lat := n.latency
	if n.jitter > 0 {
		lat = n.sim.Rand().Jitter(n.latency, n.jitter)
	}
	var d *delivery
	if k := len(n.free); k > 0 {
		d, n.free = n.free[k-1], n.free[:k-1]
	} else {
		d = &delivery{n: n}
		d.fn = d.deliver
	}
	d.msg = msg
	n.sim.PostAfter(lat, n.label, d.fn)
	return nil
}

// Router sends over an ordered preference list of networks, falling back to
// the next network when the preferred one is unusable. The paper's agents
// prefer the private intelliagent network and re-route over the public LAN
// on failure.
type Router struct {
	nets     []*Network
	Reroutes int // messages that fell back past the first network
}

// NewRouter returns a router preferring nets in the given order.
func NewRouter(nets ...*Network) *Router { return &Router{nets: nets} }

// Send delivers msg over the first usable network. It reports which network
// carried the message.
func (r *Router) Send(msg Message) (*Network, error) {
	for i, n := range r.nets {
		if !n.Usable(msg.From, msg.To) {
			continue
		}
		if err := n.Send(msg); err != nil {
			continue
		}
		if i > 0 {
			r.Reroutes++
		}
		return n, nil
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoRouteFound, msg.From, msg.To)
}
