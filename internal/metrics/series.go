package metrics

import (
	"fmt"
	"strings"

	"repro/internal/simclock"
)

// Point is one sample in a time series.
type Point struct {
	T simclock.Time
	V float64
}

// Series is a named, time-ordered sequence of samples — the shape of the
// paper's Figures 3 and 4 (one series per monitor).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample. Samples must arrive in time order.
func (s *Series) Add(t simclock.Time, v float64) {
	if n := len(s.Points); n > 0 && s.Points[n-1].T > t {
		panic(fmt.Sprintf("metrics: series %s: out-of-order sample at %v", s.Name, t))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Mean reports the mean sample value (zero for an empty series).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Len reports the sample count.
func (s *Series) Len() int { return len(s.Points) }

// FormatTable renders several series sharing a sampling schedule as an
// aligned ASCII table, one row per sample index — the form the paper's
// figures tabulate ("measurements every half hour for 4 hours").
func FormatTable(title, unit string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", title, unit)
	fmt.Fprintf(&b, "%-8s", "sample")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	rows := 0
	for _, s := range series {
		if s.Len() > rows {
			rows = s.Len()
		}
	}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%-8d", i+1)
		for _, s := range series {
			if i < s.Len() {
				fmt.Fprintf(&b, " %14.3f", s.Points[i].V)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-8s", "mean")
	for _, s := range series {
		fmt.Fprintf(&b, " %14.3f", s.Mean())
	}
	b.WriteByte('\n')
	return b.String()
}
