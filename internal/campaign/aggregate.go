package campaign

import (
	"math"
	"sort"
)

// Stat summarises one metric across a group's trials. CI95 is the
// half-width of the two-sided 95% confidence interval for the mean under
// the Student-t distribution (zero when fewer than two samples exist), so
// the interval is Mean ± CI95 — the replicated-trial convention.
type Stat struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
	CI95   float64 `json:"ci95"`
}

// tCrit95 holds two-sided 95% Student-t critical values for df 1..30;
// beyond the table the normal approximation 1.960 is used.
var tCrit95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for the given
// degrees of freedom.
func TCrit95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.960
}

// NewStat computes the summary of a sample. Empty samples yield the zero
// Stat; singletons carry their value with zero spread.
func NewStat(xs []float64) Stat {
	n := len(xs)
	if n == 0 {
		return Stat{}
	}
	s := Stat{N: n, Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n < 2 {
		return s
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(n-1)) // sample (n-1) stddev
	s.CI95 = TCrit95(n-1) * s.Stddev / math.Sqrt(float64(n))
	return s
}

// Group aggregates the trials sharing one Cell — the seed axis is what
// the statistics run over. Option axes are part of the cell: two cells
// differing only in cron period aggregate separately.
type Group struct {
	Cell
	Seeds  int             `json:"seeds"`
	Errors int             `json:"errors,omitempty"`
	Stats  map[string]Stat `json:"stats"`
}

// MetricNames lists the group's metric keys sorted, for stable rendering.
func (g Group) MetricNames() []string {
	names := make([]string, 0, len(g.Stats))
	for name := range g.Stats {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Aggregate folds trial results into per-group statistics. Groups appear
// in first-trial order (i.e. matrix enumeration order), so output is
// deterministic. Failed trials count toward Errors and contribute no
// samples; a metric missing from some trials is aggregated over the
// trials that report it.
func Aggregate(trials []TrialResult) []Group {
	var order []Cell
	samples := make(map[Cell]map[string][]float64)
	groups := make(map[Cell]*Group)
	for _, tr := range trials {
		k := tr.Trial.Cell
		g, ok := groups[k]
		if !ok {
			g = &Group{Cell: k}
			groups[k] = g
			samples[k] = make(map[string][]float64)
			order = append(order, k)
		}
		if tr.Err != "" {
			g.Errors++
			continue
		}
		g.Seeds++
		for name, v := range tr.Metrics {
			samples[k][name] = append(samples[k][name], v)
		}
	}
	out := make([]Group, 0, len(order))
	for _, k := range order {
		g := groups[k]
		g.Stats = make(map[string]Stat, len(samples[k]))
		for name, xs := range samples[k] {
			g.Stats[name] = NewStat(xs)
		}
		out = append(out, *g)
	}
	return out
}
