// Package metrics keeps the books for the reproduction's experiments: an
// incident ledger charging downtime hours to the paper's Figure 2 error
// categories, detection-latency records, and time series for the overhead
// figures.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simclock"
)

// Category is one of the eight downtime categories in the paper's Figure 2.
type Category string

// Figure 2 categories, in the paper's order.
const (
	CatMidCrash       Category = "mid-crash"       // databases crashing in the middle of a job
	CatHuman          Category = "human"           // human errors
	CatPerformance    Category = "performance"     // performance-related errors
	CatFrontEnd       Category = "front-end"       // front-end user application downtime
	CatLSF            Category = "lsf"             // LSF errors
	CatFirewallNet    Category = "fw/nw"           // firewall configuration / network errors
	CatHardware       Category = "hardware"        // all types of hardware errors
	CatCompletelyDown Category = "completely-down" // services completely unavailable (corruptions, bugs)
)

// Categories lists all categories in the paper's reporting order.
var Categories = []Category{
	CatMidCrash, CatHuman, CatPerformance, CatFrontEnd,
	CatLSF, CatFirewallNet, CatHardware, CatCompletelyDown,
}

// Incident is one fault's life: injected, detected, resolved. Downtime for
// the ledger is resolved-started (the service is unusable for the whole
// window, as the paper counts it).
type Incident struct {
	Category Category
	Host     string

	StartedAt  simclock.Time
	DetectedAt simclock.Time
	ResolvedAt simclock.Time
	Detected   bool
	Resolved   bool
	DetectedBy string // e.g. "intelliagent", "operator", "user-report"
	ResolvedBy string // e.g. "intelliagent", "oncall-admin"
}

// DetectionLatency reports time from start to detection (zero if
// undetected).
func (i *Incident) DetectionLatency() simclock.Time {
	if !i.Detected {
		return 0
	}
	return i.DetectedAt - i.StartedAt
}

// Downtime reports the incident's downtime up to now (or its full span if
// resolved).
func (i *Incident) Downtime(now simclock.Time) simclock.Time {
	if i.Resolved {
		return i.ResolvedAt - i.StartedAt
	}
	return now - i.StartedAt
}

// The §4 fault windows, shared by the report and the latency campaign so
// the same incident is never classified two ways. Overnight and weekend
// are disjoint: weekend nights count as weekend.

// WindowDay reports whether the incident started in weekday daytime.
func WindowDay(i *Incident) bool {
	return !i.StartedAt.IsWeekend() && !i.StartedAt.IsOvernight()
}

// WindowOvernight reports whether the incident started in a weekday
// overnight batch window (22:00–06:00).
func WindowOvernight(i *Incident) bool {
	return i.StartedAt.IsOvernight() && !i.StartedAt.IsWeekend()
}

// WindowWeekend reports whether the incident started on a weekend.
func WindowWeekend(i *Incident) bool {
	return i.StartedAt.IsWeekend()
}

// Ledger records incidents and charges downtime per category.
type Ledger struct {
	incidents []*Incident
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Reset empties the ledger back to the state NewLedger returns. Site reuse
// calls this between trials.
func (l *Ledger) Reset() {
	l.incidents = l.incidents[:0]
}

// Open records a new incident starting at now.
func (l *Ledger) Open(cat Category, host string, now simclock.Time) *Incident {
	inc := &Incident{Category: cat, Host: host, StartedAt: now}
	l.incidents = append(l.incidents, inc)
	return inc
}

// Detect marks the incident detected at now by the named detector. Only the
// first detection sticks.
func (l *Ledger) Detect(inc *Incident, now simclock.Time, by string) {
	if inc.Detected {
		return
	}
	inc.Detected = true
	inc.DetectedAt = now
	inc.DetectedBy = by
}

// Resolve closes the incident at now, crediting the named resolver.
// Resolving implies detection (at the same moment if none was recorded).
func (l *Ledger) Resolve(inc *Incident, now simclock.Time, by string) {
	if inc.Resolved {
		return
	}
	l.Detect(inc, now, by)
	inc.Resolved = true
	inc.ResolvedAt = now
	inc.ResolvedBy = by
}

// Incidents returns all incidents in open order.
func (l *Ledger) Incidents() []*Incident { return l.incidents }

// Count reports total incidents in a category.
func (l *Ledger) Count(cat Category) int {
	n := 0
	for _, inc := range l.incidents {
		if inc.Category == cat {
			n++
		}
	}
	return n
}

// DowntimeByCategory sums downtime per category up to now.
func (l *Ledger) DowntimeByCategory(now simclock.Time) map[Category]simclock.Time {
	out := make(map[Category]simclock.Time, len(Categories))
	for _, inc := range l.incidents {
		out[inc.Category] += inc.Downtime(now)
	}
	return out
}

// TotalDowntime sums downtime across categories up to now.
func (l *Ledger) TotalDowntime(now simclock.Time) simclock.Time {
	var total simclock.Time
	for _, inc := range l.incidents {
		total += inc.Downtime(now)
	}
	return total
}

// DetectionLatencies returns the latency of every detected incident that
// matches filter (nil matches all), sorted ascending.
func (l *Ledger) DetectionLatencies(filter func(*Incident) bool) []simclock.Time {
	var out []simclock.Time
	for _, inc := range l.incidents {
		if !inc.Detected {
			continue
		}
		if filter != nil && !filter(inc) {
			continue
		}
		out = append(out, inc.DetectionLatency())
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MTTRs returns repair times (resolve-detect) of resolved incidents that
// match filter, sorted ascending.
func (l *Ledger) MTTRs(filter func(*Incident) bool) []simclock.Time {
	var out []simclock.Time
	for _, inc := range l.incidents {
		if !inc.Resolved {
			continue
		}
		if filter != nil && !filter(inc) {
			continue
		}
		out = append(out, inc.ResolvedAt-inc.DetectedAt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mean computes the mean of a sorted-or-not sample; zero for empty.
func Mean(xs []simclock.Time) simclock.Time {
	if len(xs) == 0 {
		return 0
	}
	var sum simclock.Time
	for _, x := range xs {
		sum += x
	}
	return sum / simclock.Time(len(xs))
}

// Availability reports the fraction (0..1) of span not lost to downtime —
// the service-availability headline campaigns aggregate across seeds.
// Incident downtime can overlap (several services down at once), so the
// value is clamped at zero rather than going negative; a zero span counts
// as fully available.
func Availability(down, span simclock.Time) float64 {
	if span <= 0 {
		return 1
	}
	a := 1 - float64(down)/float64(span)
	if a < 0 {
		return 0
	}
	return a
}

// Percentile returns the p-quantile (0..1) of xs by nearest-rank on a
// copy. p is clamped into [0, 1]; a NaN p counts as 0 — the
// float-to-int conversion of a non-finite product is implementation-
// defined in Go, so it must never reach the index arithmetic.
func Percentile(xs []simclock.Time, p float64) simclock.Time {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(p) || p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	cp := append([]simclock.Time(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(p*float64(len(cp)-1) + 0.5)
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// Summary is a one-line category report row.
type Summary struct {
	Category  Category
	Incidents int
	Downtime  simclock.Time
}

// Summaries builds Figure-2 style rows for every category (including empty
// ones) up to now.
func (l *Ledger) Summaries(now simclock.Time) []Summary {
	down := l.DowntimeByCategory(now)
	out := make([]Summary, 0, len(Categories))
	for _, c := range Categories {
		out = append(out, Summary{Category: c, Incidents: l.Count(c), Downtime: down[c]})
	}
	return out
}

func (s Summary) String() string {
	return fmt.Sprintf("%-16s %4d incidents %8.1f h", s.Category, s.Incidents, s.Downtime.Hours())
}
