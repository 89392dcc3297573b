// Package faultinject drives the reproduction's fault workload: the eight
// error categories of the paper's Figure 2 arrive as (window-biased)
// Poisson processes, each injection breaks something concrete in the
// simulated datacentre, and a registry ties every live fault to its ledger
// incident so that whoever notices it first — an intelliagent within one
// cron period, or a human hours later — is credited with the detection.
package faultinject

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Window biases fault arrivals into the day parts where the paper says they
// clustered: human errors during working hours, database mid-job crashes
// during the overnight batch window.
type Window int

// Arrival windows.
const (
	AnyTime Window = iota
	Daytime
	Overnight
)

func (w Window) String() string {
	switch w {
	case AnyTime:
		return "any"
	case Daytime:
		return "day"
	case Overnight:
		return "overnight"
	}
	return "?"
}

// contains reports whether t falls inside the window.
func (w Window) contains(t simclock.Time) bool {
	switch w {
	case Daytime:
		return !t.IsOvernight() && !t.IsWeekend()
	case Overnight:
		return t.IsOvernight()
	default:
		return true
	}
}

// Fault is one live injected fault.
type Fault struct {
	Incident *metrics.Incident
	Category metrics.Category
	Host     string
	Aspect   string // the aspect an agent finding will carry, e.g. "service.ORA-01"
	// HumanOnly marks faults agents cannot repair (firewall/network and
	// hardware errors, the paper's stated limitation).
	HumanOnly bool
	// Repair undoes the breakage; it reports whether the fix took. It must
	// be idempotent.
	Repair func(now simclock.Time) bool
	closed bool
}

func (f *Fault) String() string {
	return fmt.Sprintf("%s on %s (%s)", f.Category, f.Host, f.Aspect)
}

// Registry indexes live faults by host and aspect and keeps the ledger in
// step with detections and repairs.
type Registry struct {
	Ledger *metrics.Ledger
	open   map[string][]*Fault // host -> live faults
	// OnDetected, if set, fires at a live fault's first detection — the
	// scenario hook that starts the human repair clock for faults agents
	// cannot fix themselves.
	OnDetected func(f *Fault, now simclock.Time)
	// Trace, when non-nil, records fault/detect/resolve decision events.
	Trace *trace.Recorder
}

// NewRegistry returns a registry writing to the given ledger.
func NewRegistry(ledger *metrics.Ledger) *Registry {
	return &Registry{Ledger: ledger, open: make(map[string][]*Fault)}
}

// Reset drops every live fault, returning the registry to the state
// NewRegistry gives it. The OnDetected hook is kept: it is wired once per
// site and survives trial reuse. The ledger is reset separately by its
// owner.
func (r *Registry) Reset() {
	clear(r.open)
}

// Add registers a live fault and opens its incident.
func (r *Registry) Add(cat metrics.Category, host, aspect, detail string, humanOnly bool,
	now simclock.Time, repair func(now simclock.Time) bool) *Fault {
	f := &Fault{
		Incident:  r.Ledger.Open(cat, host, now),
		Category:  cat,
		Host:      host,
		Aspect:    aspect,
		HumanOnly: humanOnly,
		Repair:    repair,
	}
	r.open[host] = append(r.open[host], f)
	r.Trace.Fault(now, string(cat), host, aspect, detail)
	return f
}

// Find returns the oldest live fault on host matching aspect, or nil.
func (r *Registry) Find(host, aspect string) *Fault {
	for _, f := range r.open[host] {
		if f.Aspect == aspect && !f.closed {
			return f
		}
	}
	return nil
}

// OpenOn returns all live faults on a host, oldest first.
func (r *Registry) OpenOn(host string) []*Fault {
	var out []*Fault
	for _, f := range r.open[host] {
		if !f.closed {
			out = append(out, f)
		}
	}
	return out
}

// OpenCount reports live faults across all hosts.
func (r *Registry) OpenCount() int {
	n := 0
	for _, fs := range r.open {
		for _, f := range fs {
			if !f.closed {
				n++
			}
		}
	}
	return n
}

// Detected marks the matching fault's incident detected. Unknown aspects
// are ignored (agents may report symptoms of already-closed faults).
func (r *Registry) Detected(host, aspect string, now simclock.Time, by string) {
	if f := r.Find(host, aspect); f != nil {
		r.DetectFault(f, now, by)
	}
}

// DetectFault marks a specific live fault detected, firing OnDetected on
// the first detection.
func (r *Registry) DetectFault(f *Fault, now simclock.Time, by string) {
	if f == nil || f.closed || f.Incident.Detected {
		return
	}
	r.Trace.Detect(now, f.Host, f.Aspect, by)
	r.Ledger.Detect(f.Incident, now, by)
	if r.OnDetected != nil {
		r.OnDetected(f, now)
	}
}

// Resolve runs the fault's repair and, when it succeeds, closes the
// incident crediting the resolver. It reports whether a live fault matched
// and was repaired.
func (r *Registry) Resolve(host, aspect string, now simclock.Time, by string) bool {
	f := r.Find(host, aspect)
	if f == nil {
		return false
	}
	return r.resolveFault(f, now, by)
}

// ResolveFault closes a specific fault (used when the caller already holds
// it).
func (r *Registry) ResolveFault(f *Fault, now simclock.Time, by string) bool {
	if f == nil || f.closed {
		return false
	}
	return r.resolveFault(f, now, by)
}

func (r *Registry) resolveFault(f *Fault, now simclock.Time, by string) bool {
	if f.Repair != nil && !f.Repair(now) {
		return false
	}
	f.closed = true
	r.Trace.Resolve(now, f.Host, f.Aspect, by)
	r.Ledger.Resolve(f.Incident, now, by)
	// Compact the host slice lazily.
	live := f.Host
	fs := r.open[live][:0]
	for _, x := range r.open[live] {
		if !x.closed {
			fs = append(fs, x)
		}
	}
	r.open[live] = fs
	return true
}

// Blackout is a recurring daily hour window [From, To) during which a
// domain receives no fault arrivals; To <= From wraps past midnight, so
// {22, 6} covers the overnight hours.
type Blackout struct {
	From, To int
}

// contains reports whether t's hour of day falls inside the blackout.
func (b Blackout) contains(t simclock.Time) bool {
	h := t.HourOfDay()
	if b.From < b.To {
		return h >= b.From && h < b.To
	}
	return h >= b.From || h < b.To
}

func inBlackout(bs []Blackout, t simclock.Time) bool {
	for _, b := range bs {
		if b.contains(t) {
			return true
		}
	}
	return false
}

// Domain scopes a share of a spec's arrivals to one topology tier. Each
// arrival draws a domain with probability proportional to Weight, and the
// injector restricts the breakage to that tier's hosts. Blackouts slide
// arrivals that land inside them forward, like the spec's window bias.
type Domain struct {
	Tier      string
	Weight    float64
	Blackouts []Blackout
}

// Spec describes one category's arrival process. Domains, when non-empty,
// split the arrivals across tiers by weight; empty means site-wide — the
// pre-domain behaviour, byte-identical in event order and random-stream
// consumption.
type Spec struct {
	Category         metrics.Category
	MeanInterarrival simclock.Time
	Window           Window
	Domains          []Domain
}

// Campaign schedules arrivals for a set of specs and calls the scenario's
// injector for each. The injector owns the actual breakage and registry
// bookkeeping (it knows the datacentre); the campaign owns the clock and
// the domain draw. The injector's tier argument is "" for a site-wide
// arrival, else the tier the arrival must land on.
type Campaign struct {
	sim    *simclock.Sim
	rng    *simclock.Rand
	inject func(cat metrics.Category, tier string, now simclock.Time)
	counts map[metrics.Category]int
	// Trace, when non-nil, records every arrival: a record of the run,
	// which the seed, specs and start time already fix.
	Trace *trace.Recorder
}

// NewCampaign returns a campaign using its own forked random stream, so
// its arrival schedule depends only on the seed, the specs and the start
// time, whatever the injector draws or schedules. Replay rests on this.
func NewCampaign(sim *simclock.Sim, inject func(cat metrics.Category, tier string, now simclock.Time)) *Campaign {
	return &Campaign{
		sim:    sim,
		rng:    sim.Rand().Fork(0xfa01),
		inject: inject,
		counts: make(map[metrics.Category]int),
	}
}

// Injections reports how many faults of a category have been injected.
func (c *Campaign) Injections(cat metrics.Category) int { return c.counts[cat] }

// Start schedules the first arrival of every spec. Arrivals repeat until
// the simulation ends. A domain-scoped spec whose weights are all zero is
// skipped entirely: its arrivals would have nowhere to land.
func (c *Campaign) Start(specs []Spec) {
	for _, s := range specs {
		if s.MeanInterarrival <= 0 {
			continue
		}
		if len(s.Domains) > 0 && !hasPositiveWeight(s.Domains) {
			continue
		}
		c.scheduleNext(s)
	}
}

func hasPositiveWeight(ds []Domain) bool {
	for _, d := range ds {
		if d.Weight > 0 {
			return true
		}
	}
	return false
}

func (c *Campaign) scheduleNext(s Spec) {
	gap := c.rng.ExpDuration(s.MeanInterarrival)
	at := c.sim.Now() + gap
	// Window bias: slide the arrival forward to the next in-window moment
	// (preserves the rate to first order while clustering occurrences).
	for i := 0; i < 48 && !s.Window.contains(at); i++ {
		at += simclock.Hour
	}
	tier := ""
	if len(s.Domains) > 0 {
		weights := make([]float64, len(s.Domains))
		for i, d := range s.Domains {
			weights[i] = d.Weight
		}
		// Start guarantees at least one positive weight, which is all
		// rng.Pick requires.
		d := s.Domains[c.rng.Pick(weights)]
		tier = d.Tier
		// Blackout bias: slide past the domain's blackout the same way.
		// (The slide can leave the spec's window — both are first-order
		// biases, and the blackout is the harder guarantee.)
		for i := 0; i < 48 && inBlackout(d.Blackouts, at); i++ {
			at += simclock.Hour
		}
	}
	c.sim.Schedule(at, "fault:"+string(s.Category), func(now simclock.Time) {
		c.Trace.Arrival(now, string(s.Category), tier)
		c.counts[s.Category]++
		c.inject(s.Category, tier, now)
		c.scheduleNext(s)
	})
}
