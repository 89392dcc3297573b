// Package operators models the human side of the paper's "before" year:
// operators watching BMC Patrol/SystemEdge consoles, on-call administrators
// paged at night, escalation chains, and manual diagnosis and repair.
//
// The paper gives the timing constants directly (§4): faults took about 1
// hour to notice during the day, about 25 hours over weekends and about 10
// hours for overnight jobs (customer data from BMC Patrol); a service or
// server restart could take up to 2 hours because faults had to be
// diagnosed first; and when remote diagnosis failed and experts had to come
// in, the whole troubleshooting procedure averaged 4 hours.
package operators

import (
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Timing is the manual-operations timing model. Every team runs the
// paper's, DefaultTiming.
type Timing struct {
	// Mean detection delays by window (paper's customer data).
	DetectDay       simclock.Time
	DetectOvernight simclock.Time
	DetectWeekend   simclock.Time
	// Repair paths: a diagnosed restart takes up to RestartMax (uniform
	// over [RestartMin, RestartMax]); when escalation to on-site experts is
	// needed the whole procedure averages EscalatedMean.
	RestartMin    simclock.Time
	RestartMax    simclock.Time
	EscalatedMean simclock.Time
}

// DefaultTiming returns the paper's constants.
func DefaultTiming() Timing {
	return Timing{
		DetectDay:       1 * simclock.Hour,
		DetectOvernight: 10 * simclock.Hour,
		DetectWeekend:   25 * simclock.Hour,
		RestartMin:      30 * simclock.Minute,
		RestartMax:      2 * simclock.Hour,
		EscalatedMean:   4 * simclock.Hour,
	}
}

// Team is the manual operations pipeline.
type Team struct {
	rng    *simclock.Rand
	timing Timing
	// escalationP is the probability a fault cannot be fixed remotely and
	// needs the 4-hour expert path, per category.
	escalationP map[metrics.Category]float64
	// Trace, when non-nil, records page and dispatch decision events via
	// PageDelay/DispatchDelay. The sampling itself is unchanged: the
	// wrappers draw the same with the recorder on or off.
	Trace *trace.Recorder
}

// Reseed replaces the team's random stream — on site reuse the team gets a
// fresh fork of the reseeded simulation source, exactly as NewTeam would.
func (t *Team) Reseed(rng *simclock.Rand) { t.rng = rng }

// NewTeam returns a team with the paper's timing and per-category
// escalation probabilities reflecting each category's repair complexity.
func NewTeam(rng *simclock.Rand) *Team {
	return &Team{
		rng:    rng,
		timing: DefaultTiming(),
		escalationP: map[metrics.Category]float64{
			metrics.CatMidCrash:       0.45, // crashed databases often needed several experts
			metrics.CatHuman:          0.30,
			metrics.CatPerformance:    0.40, // bottleneck hunting is slow by hand
			metrics.CatFrontEnd:       0.25,
			metrics.CatLSF:            0.20,
			metrics.CatFirewallNet:    0.50,
			metrics.CatHardware:       0.80, // parts and engineers must come on site
			metrics.CatCompletelyDown: 0.60,
		},
	}
}

// DetectionDelay samples how long a fault occurring at 'now' goes unnoticed
// under manual operations: the window mean (day/overnight/weekend), spread
// ±50% — operators sometimes spot things fast, sometimes a report sits
// unread.
func (t *Team) DetectionDelay(now simclock.Time) simclock.Time {
	var mean simclock.Time
	switch {
	case now.IsWeekend():
		mean = t.timing.DetectWeekend
	case now.IsOvernight():
		mean = t.timing.DetectOvernight
	default:
		mean = t.timing.DetectDay
	}
	return t.rng.Jitter(mean, 0.5)
}

// repairDelay samples how long the manual fix takes once detected: either a
// diagnosed restart (uniform in [RestartMin, RestartMax]) or, with the
// category's escalation probability, the expert path (mean EscalatedMean,
// ±50%).
func (t *Team) repairDelay(cat metrics.Category) (delay simclock.Time, escalated bool) {
	if t.rng.Bool(t.escalationP[cat]) {
		return t.rng.Jitter(t.timing.EscalatedMean, 0.5), true
	}
	return t.rng.UniformDuration(t.timing.RestartMin, t.timing.RestartMax), false
}

// PageDelay is DetectionDelay plus a page decision event on the team's
// trace: the moment manual operations are paged about a fault, with the
// sampled time until an operator notices it.
func (t *Team) PageDelay(now simclock.Time, cat metrics.Category, host, aspect string) simclock.Time {
	d := t.DetectionDelay(now)
	t.Trace.Page(now, string(cat), host, aspect, d)
	return d
}

// DispatchDelay samples the manual repair delay and records a dispatch
// decision event on the team's trace: the delay and whether it took the
// escalated expert path.
func (t *Team) DispatchDelay(now simclock.Time, cat metrics.Category, host, aspect string) simclock.Time {
	d, escalated := t.repairDelay(cat)
	t.Trace.Dispatch(now, string(cat), host, aspect, d, escalated)
	return d
}
