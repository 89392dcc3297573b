// Package netsim simulates the paper's two-tier datacentre network: one or
// more public LANs carrying application traffic and a dedicated private
// intelliagent network carrying all agent-related traffic. Messages are
// delivered through simclock events with per-network latency. Every send
// goes through a Router: when the private network fails, it re-routes over
// the public LAN, as the paper's agents do with Unix administration
// commands.
package netsim

import (
	"errors"
	"fmt"

	"repro/internal/simclock"
)

// ErrNoRouteFound is the error Router.Send reports when none of its
// networks could deliver the message right now.
var ErrNoRouteFound = errors.New("netsim: no usable network")

// Message is a datagram between named hosts.
type Message struct {
	From    string
	To      string
	Kind    string // e.g. "flag-report", "dgspl-push", "probe", "notify"
	Payload string // flat ASCII, like everything else in the paper
}

// size is the message's accounted traffic: its payload, or a minimum
// frame when it carries none.
func (m Message) size() int {
	if n := len(m.Payload); n > 0 {
		return n
	}
	return 64 // minimum frame
}

// Handler receives delivered messages.
type Handler func(now simclock.Time, msg Message)

// Stats is cumulative traffic accounting for one network.
type Stats struct {
	Sent    int
	Dropped int
	Bytes   int64
}

// Network is a broadcast domain with uniform latency.
//
// It keeps one endpoint record per host name, in one map: the host's
// handler, whether it is attached, and its link state. A send looks both
// hosts' records up once, and a message in flight carries its
// destination's record, so its delivery reads the record's state at
// delivery time without a lookup. Records are never removed: Detach and
// Reset mark them detached, which also forgets the link state, and a
// later Attach of the same name takes the same record back.
type Network struct {
	name      string
	label     string // the delivery events' label
	sim       *simclock.Sim
	latency   simclock.Time
	jitter    float64
	up        bool
	endpoints map[string]*endpoint
	stats     Stats
	free      []*delivery // delivered records, reused by the next send
}

// endpoint is one host's attachment to a network.
type endpoint struct {
	handler  Handler
	attached bool
	linkUp   bool // false whenever detached
}

// delivery is one message in flight. Records are pooled per network, and
// each binds its deliver method to fn once, when it is first made, so a
// send posts a pooled record with no closure and no allocation.
type delivery struct {
	n   *Network
	to  *endpoint // msg.To's record
	msg Message
	fn  func(now simclock.Time)
}

// deliver hands the message to the destination's handler, or counts a
// drop when the fabric, the destination's link or its attachment went away
// in flight. The record returns to the pool first, so a handler that sends
// can reuse it.
func (d *delivery) deliver(now simclock.Time) {
	n, to, msg := d.n, d.to, d.msg
	d.to, d.msg = nil, Message{}
	n.free = append(n.free, d)
	if !n.up || !to.linkUp {
		n.stats.Dropped++
		return
	}
	to.handler(now, msg)
}

// New returns an operational network delivering with the given base
// latency. A jitter fraction of e.g. 0.2 spreads latency ±20%.
func New(sim *simclock.Sim, name string, latency simclock.Time, jitter float64) *Network {
	return &Network{
		name:      name,
		label:     "netsim:" + name + ":deliver",
		sim:       sim,
		latency:   latency,
		jitter:    jitter,
		up:        true,
		endpoints: make(map[string]*endpoint),
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
// attachments, zero counters — keeping the endpoint records and the
// delivery pool allocated. Site reuse calls this between trials and
// re-attaches the skeleton's hosts. A message still in flight is delivered
// against the reset network (a drop, unless its destination was
// re-attached).
func (n *Network) Reset() {
	n.up = true
	for _, ep := range n.endpoints {
		*ep = endpoint{}
	}
	n.stats = Stats{}
}

// endpoint returns host's record, or nil when the host is not attached.
func (n *Network) endpoint(host string) *endpoint {
	if ep := n.endpoints[host]; ep != nil && ep.attached {
		return ep
	}
	return nil
}

// Attach connects host to the network with its link up. Reattaching
// replaces the handler but preserves link state.
func (n *Network) Attach(host string, h Handler) {
	ep := n.endpoints[host]
	if ep == nil {
		ep = &endpoint{}
		n.endpoints[host] = ep
	}
	if !ep.attached {
		ep.attached, ep.linkUp = true, true
	}
	ep.handler = h
}

// Detach removes the host entirely: a later Attach starts with its link
// up.
func (n *Network) Detach(host string) {
	if ep := n.endpoints[host]; ep != nil {
		*ep = endpoint{}
	}
}

// Attached reports whether host is connected.
func (n *Network) Attached(host string) bool { return n.endpoint(host) != nil }

// SetLink raises or drops a single host's link (NIC or cable failure). It
// does nothing to a host that is not attached.
func (n *Network) SetLink(host string, up bool) {
	if ep := n.endpoint(host); ep != nil {
		ep.linkUp = up
	}
}

// LinkUp reports the host's link state.
func (n *Network) LinkUp(host string) bool {
	ep := n.endpoints[host]
	return ep != nil && ep.linkUp
}

// route returns the destination's record when a message from one host to
// another could be delivered right now, and nil when it could not.
func (n *Network) route(from, to string) *endpoint {
	if !n.up {
		return nil
	}
	src, dst := n.endpoint(from), n.endpoint(to)
	if src == nil || dst == nil || !src.linkUp || !dst.linkUp {
		return nil
	}
	return dst
}

// post counts msg as sent and queues its delivery to dst, the record of a
// usable destination.
func (n *Network) post(msg Message, dst *endpoint) {
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
	d.to, d.msg = dst, msg
	n.sim.PostAfter(lat, n.label, d.fn)
}

// Router sends over an ordered preference list of networks, falling back to
// the next network when the preferred one is unusable. The paper's agents
// prefer the private intelliagent network and re-route over the public LAN
// on failure.
type Router struct {
	nets []*Network
}

// NewRouter returns a router preferring nets in the given order.
func NewRouter(nets ...*Network) *Router { return &Router{nets: nets} }

// Send queues msg for delivery over the first usable network, after that
// network's latency, and reports which network carried it. Delivery can
// still fail (counted as a drop on that network) when the fabric or the
// destination's link drops in flight.
func (r *Router) Send(msg Message) (*Network, error) {
	for _, n := range r.nets {
		dst := n.route(msg.From, msg.To)
		if dst == nil {
			continue
		}
		n.post(msg, dst)
		return n, nil
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoRouteFound, msg.From, msg.To)
}
