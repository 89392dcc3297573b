package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func TestIncidentLifecycle(t *testing.T) {
	l := NewLedger()
	inc := l.Open(CatMidCrash, "db001", simclock.Hour)
	if inc.Category != CatMidCrash || inc.Host != "db001" || inc.StartedAt != simclock.Hour || inc.Detected || inc.Resolved {
		t.Fatalf("fresh incident: %+v", inc)
	}
	l.Detect(inc, simclock.Hour+5*simclock.Minute, "intelliagent")
	if inc.DetectionLatency() != 5*simclock.Minute {
		t.Errorf("detection latency = %v", inc.DetectionLatency())
	}
	l.Detect(inc, simclock.Hour+50*simclock.Minute, "operator") // second detect ignored
	if inc.DetectedBy != "intelliagent" {
		t.Errorf("first detection must stick: %s", inc.DetectedBy)
	}
	l.Resolve(inc, simclock.Hour+20*simclock.Minute, "intelliagent")
	if inc.Downtime(0) != 20*simclock.Minute {
		t.Errorf("downtime = %v", inc.Downtime(0))
	}
	l.Resolve(inc, simclock.Hour+60*simclock.Minute, "x") // second resolve ignored
	if inc.ResolvedAt != simclock.Hour+20*simclock.Minute {
		t.Error("first resolve must stick")
	}
}

func TestResolveImpliesDetect(t *testing.T) {
	l := NewLedger()
	inc := l.Open(CatHuman, "h", 0)
	l.Resolve(inc, simclock.Hour, "oncall")
	if !inc.Detected || inc.DetectedAt != simclock.Hour {
		t.Errorf("resolve should imply detection: %+v", inc)
	}
}

func TestOpenIncidentDowntimeAccrues(t *testing.T) {
	l := NewLedger()
	l.Open(CatHardware, "h", simclock.Hour)
	if got := l.TotalDowntime(3 * simclock.Hour); got != 2*simclock.Hour {
		t.Errorf("open downtime = %v", got)
	}
}

func TestDowntimeByCategory(t *testing.T) {
	l := NewLedger()
	a := l.Open(CatMidCrash, "h1", 0)
	b := l.Open(CatMidCrash, "h2", 0)
	c := l.Open(CatLSF, "h3", simclock.Hour)
	l.Resolve(a, 2*simclock.Hour, "x")
	l.Resolve(b, 1*simclock.Hour, "x")
	l.Resolve(c, 90*simclock.Minute, "x")
	down := l.DowntimeByCategory(10 * simclock.Hour)
	if down[CatMidCrash] != 3*simclock.Hour {
		t.Errorf("mid-crash = %v", down[CatMidCrash])
	}
	if down[CatLSF] != 30*simclock.Minute {
		t.Errorf("lsf = %v", down[CatLSF])
	}
	if l.TotalDowntime(10*simclock.Hour) != 3*simclock.Hour+30*simclock.Minute {
		t.Errorf("total = %v", l.TotalDowntime(10*simclock.Hour))
	}
	if l.Count(CatMidCrash) != 2 || l.Count(CatHuman) != 0 {
		t.Error("counts wrong")
	}
}

func TestDetectionLatenciesAndMTTRs(t *testing.T) {
	l := NewLedger()
	for i, lat := range []simclock.Time{5 * simclock.Minute, 2 * simclock.Minute, 9 * simclock.Minute} {
		inc := l.Open(CatPerformance, "h", simclock.Time(i)*simclock.Hour)
		l.Detect(inc, inc.StartedAt+lat, "agent")
		l.Resolve(inc, inc.DetectedAt+simclock.Time(i+1)*simclock.Minute, "agent")
	}
	undetected := l.Open(CatPerformance, "h", 0)
	_ = undetected
	lats := l.DetectionLatencies(nil)
	if len(lats) != 3 || lats[0] != 2*simclock.Minute || lats[2] != 9*simclock.Minute {
		t.Errorf("latencies = %v", lats)
	}
	mttrs := l.MTTRs(nil)
	if len(mttrs) != 3 || mttrs[0] != simclock.Minute {
		t.Errorf("mttrs = %v", mttrs)
	}
	filtered := l.DetectionLatencies(func(i *Incident) bool { return i.DetectionLatency() > 4*simclock.Minute })
	if len(filtered) != 2 {
		t.Errorf("filtered = %v", filtered)
	}
}

func TestMeanPercentile(t *testing.T) {
	xs := []simclock.Time{simclock.Hour, 3 * simclock.Hour, 2 * simclock.Hour}
	if Mean(xs) != 2*simclock.Hour {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 || Percentile(nil, 0.5) != 0 {
		t.Error("empty stats should be zero")
	}
	if p := Percentile(xs, 0.5); p != 2*simclock.Hour {
		t.Errorf("median = %v", p)
	}
	if p := Percentile(xs, 1); p != 3*simclock.Hour {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(xs, 0); p != simclock.Hour {
		t.Errorf("p0 = %v", p)
	}
	// Percentile must not mutate the input.
	if xs[0] != simclock.Hour || xs[1] != 3*simclock.Hour {
		t.Error("Percentile mutated input")
	}
}

func TestSummaries(t *testing.T) {
	l := NewLedger()
	inc := l.Open(CatFirewallNet, "fw", 0)
	l.Resolve(inc, 8*simclock.Hour, "oncall")
	rows := l.Summaries(24 * simclock.Hour)
	if len(rows) != len(Categories) {
		t.Fatalf("rows = %d", len(rows))
	}
	var fw Summary
	for _, r := range rows {
		if r.Category == CatFirewallNet {
			fw = r
		}
	}
	if fw.Incidents != 1 || fw.Downtime != 8*simclock.Hour {
		t.Errorf("fw row = %+v", fw)
	}
	if !strings.Contains(fw.String(), "8.0 h") {
		t.Errorf("row format: %s", fw.String())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "bmc-cpu"
	s.Add(0, 0.33)
	s.Add(30*simclock.Minute, 0.5)
	s.Add(simclock.Hour, 1.1)
	if s.Len() != 3 || s.Mean() < 0.64 || s.Mean() > 0.65 {
		t.Errorf("len=%d mean=%v", s.Len(), s.Mean())
	}
	if got := s.Points; len(got) != 3 || got[2] != (Point{T: simclock.Hour, V: 1.1}) {
		t.Errorf("points = %v", got)
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	var s Series
	s.Add(simclock.Hour, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order add should panic")
		}
	}()
	s.Add(0, 2)
}

func TestEmptySeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Len() != 0 {
		t.Error("empty series stats should be zero")
	}
}

func TestFormatTable(t *testing.T) {
	a := &Series{Name: "bmc"}
	b := &Series{Name: "agent"}
	for i := 0; i < 3; i++ {
		a.Add(simclock.Time(i)*simclock.Hour, float64(i))
	}
	b.Add(0, 0.05)
	out := FormatTable("Fig3 CPU", "%", a, b)
	if !strings.Contains(out, "bmc") || !strings.Contains(out, "agent") {
		t.Errorf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "mean") {
		t.Error("missing mean row")
	}
	if !strings.Contains(out, "-") {
		t.Error("short series should pad with -")
	}
	if lines := strings.Count(out, "\n"); lines != 6 { // title+header+3 rows+mean
		t.Errorf("line count = %d:\n%s", lines, out)
	}
}

// Property: total downtime equals the sum over category downtimes for any
// incident mix.
func TestQuickLedgerSums(t *testing.T) {
	f := func(spans []uint16) bool {
		l := NewLedger()
		for i, sp := range spans {
			cat := Categories[i%len(Categories)]
			inc := l.Open(cat, "h", 0)
			l.Resolve(inc, simclock.Time(sp)*simclock.Second, "x")
		}
		now := simclock.Day
		var sum simclock.Time
		for _, d := range l.DowntimeByCategory(now) {
			sum += d
		}
		return sum == l.TotalDowntime(now)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPercentile pins the nearest-rank quantile, including the edge
// cases that used to reach implementation-defined float-to-int
// conversion: NaN and ±Inf p must clamp instead of producing an
// arbitrary index.
func TestPercentile(t *testing.T) {
	ts := func(vs ...int) []simclock.Time {
		out := make([]simclock.Time, len(vs))
		for i, v := range vs {
			out[i] = simclock.Time(v) * simclock.Second
		}
		return out
	}
	sample := ts(50, 10, 40, 30, 20) // unsorted on purpose: Percentile sorts a copy
	cases := []struct {
		name string
		xs   []simclock.Time
		p    float64
		want simclock.Time
	}{
		{"empty", nil, 0.95, 0},
		{"empty-nan", nil, math.NaN(), 0},
		{"single-p0", ts(7), 0, 7 * simclock.Second},
		{"single-p1", ts(7), 1, 7 * simclock.Second},
		{"single-nan", ts(7), math.NaN(), 7 * simclock.Second},
		{"p0", sample, 0, 10 * simclock.Second},
		{"p50", sample, 0.5, 30 * simclock.Second},
		{"p95", sample, 0.95, 50 * simclock.Second},
		{"p1", sample, 1, 50 * simclock.Second},
		{"negative-clamps", sample, -3, 10 * simclock.Second},
		{"above-one-clamps", sample, 2.5, 50 * simclock.Second},
		{"nan-clamps-low", sample, math.NaN(), 10 * simclock.Second},
		{"neg-inf-clamps-low", sample, math.Inf(-1), 10 * simclock.Second},
		{"pos-inf-clamps-high", sample, math.Inf(1), 50 * simclock.Second},
	}
	for _, tc := range cases {
		if got := Percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("%s: Percentile(p=%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
	if sample[0] != 50*simclock.Second {
		t.Error("Percentile mutated its input")
	}
}
