package diagnose

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func TestConstraintViolated(t *testing.T) {
	c := Constraint{Aspect: "x", Min: 1, Max: 10}
	for v, want := range map[float64]bool{0: true, 1: false, 5: false, 10: false, 11: true} {
		if got := c.Violated(v); got != want {
			t.Errorf("Violated(%g) = %v", v, got)
		}
	}
}

func TestBaselineCheck(t *testing.T) {
	b := NewBaseline()
	b.Set(Constraint{Aspect: "cpu.runqueue", Min: 0, Max: 8, Unit: "procs"})
	if msg, bad := b.Check("cpu.runqueue", 12); !bad || !strings.Contains(msg, "12") {
		t.Errorf("check: %q %v", msg, bad)
	}
	if _, bad := b.Check("cpu.runqueue", 3); bad {
		t.Error("in-range value flagged")
	}
	if _, bad := b.Check("unknown.aspect", 1e9); bad {
		t.Error("unconstrained aspect flagged")
	}
}

func TestBaselineAdjust(t *testing.T) {
	b := NewBaseline()
	b.Set(Constraint{Aspect: "x", Min: 0, Max: 10})
	b.Adjust("x", 15)
	if _, bad := b.Check("x", 15); bad {
		t.Error("adjusted bound should admit the value")
	}
	if b.Adjustments["x"] != 1 {
		t.Errorf("adjustments = %v", b.Adjustments)
	}
	b.Adjust("x", -5)
	if _, bad := b.Check("x", -5); bad {
		t.Error("adjusted lower bound should admit the value")
	}
	b.Adjust("ghost", 1) // no-op
	if b.Adjustments["ghost"] != 0 {
		t.Error("adjusting unknown aspect should not record")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	b := NewBaseline()
	b.Set(Constraint{Aspect: "memory.scanrate", Min: 0, Max: 200, Unit: "pages/s"})
	b.Set(Constraint{Aspect: "disk.asvc", Min: 0, Max: 50.5, Unit: "ms"})
	got, err := DecodeBaseline(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range b.Aspects() {
		want, _ := b.Get(a)
		have, ok := got.Get(a)
		if !ok || have != want {
			t.Errorf("aspect %s: want %v got %v %v", a, want, have, ok)
		}
	}
}

func TestDecodeBaselineErrors(t *testing.T) {
	for _, line := range []string{
		"limit|x|a|1|u",
		"limit|cpu.idlepct|5abc|10x|pct", // trailing garbage in both bounds
		"limit|cpu.idlepct|5|10x|pct",
		"limit|cpu.idlepct| 5|10|pct",
		"limit|cpu.idlepct|5||pct",
	} {
		if _, err := DecodeBaseline([]string{line}); err == nil {
			t.Errorf("bad bound should fail: %q", line)
		}
	}
	b, err := DecodeBaseline([]string{"limit|disk.asvc|-0.5|+Inf|ms"})
	if err != nil {
		t.Fatalf("%%g-rendered bounds should parse: %v", err)
	}
	if c, ok := b.Get("disk.asvc"); !ok || c.Min != -0.5 || !math.IsInf(c.Max, 1) {
		t.Errorf("decoded %+v", c)
	}
	if _, err := DecodeBaseline([]string{"nonsense"}); err == nil {
		t.Error("malformed line should fail")
	}
	if _, err := DecodeBaseline([]string{"# comment", ""}); err != nil {
		t.Errorf("comments should parse: %v", err)
	}
}

func TestDefaultBaselinesScale(t *testing.T) {
	big := DefaultOSBaseline(cluster.ModelE10K)
	small := DefaultOSBaseline(cluster.ModelUltra10)
	cb, _ := big.Get("cpu.runqueue")
	cs, _ := small.Get("cpu.runqueue")
	if cb.Max <= cs.Max {
		t.Error("run queue bound should scale with CPU count")
	}
	mb, _ := big.Get("memory.freemb")
	ms, _ := small.Get("memory.freemb")
	if mb.Min <= ms.Min {
		t.Error("free memory floor should scale with RAM")
	}
	if DefaultNetBaseline().Aspects()[0] != "net.collisions" {
		t.Error("net baseline missing")
	}
	if _, ok := DefaultDBBaseline().Get("db.connect"); !ok {
		t.Error("db baseline missing connect constraint")
	}
}

func TestEvidence(t *testing.T) {
	ev := NewEvidence().
		Observe("scanrate", 900).
		Fact("db.refused", true).
		Note("log: ORA-600 at %s", "12:00")
	if v, ok := ev.Value("scanrate"); !ok || v != 900 {
		t.Error("Value broken")
	}
	if _, ok := ev.Value("missing"); ok {
		t.Error("missing value should report false")
	}
	if !ev.Holds("db.refused") || ev.Holds("other") {
		t.Error("Holds broken")
	}
	if !ev.Above("scanrate", 800) || ev.Above("scanrate", 1000) || ev.Above("missing", 0) {
		t.Error("Above broken")
	}
	if !ev.Below("scanrate", 1000) || ev.Below("missing", 1e9) {
		t.Error("Below broken")
	}
	if len(ev.Notes) != 1 || !strings.Contains(ev.Notes[0], "ORA-600") {
		t.Errorf("notes = %v", ev.Notes)
	}
}

func TestEnginePriorityAndFirstMatch(t *testing.T) {
	e := NewEngine(
		Rule{Name: "low", Priority: 1, When: func(*Evidence) bool { return true }, Cause: "c-low", Action: "a-low"},
		Rule{Name: "high", Priority: 9, When: func(*Evidence) bool { return true }, Cause: "c-high", Action: "a-high"},
	)
	got := e.Diagnose(NewEvidence())
	if len(got) != 1 || got[0].Rule != "high" {
		t.Errorf("conclusions = %v", got)
	}
}

func TestEngineContinue(t *testing.T) {
	e := NewEngine(
		Rule{Name: "a", Priority: 2, When: func(*Evidence) bool { return true }, Cause: "ca", Action: "x", Continue: true},
		Rule{Name: "b", Priority: 1, When: func(*Evidence) bool { return true }, Cause: "cb", Action: "y"},
	)
	got := e.Diagnose(NewEvidence())
	if len(got) != 2 || got[0].Rule != "a" || got[1].Rule != "b" {
		t.Errorf("conclusions = %v", got)
	}
}

func TestEngineNoMatch(t *testing.T) {
	e := NewEngine(Rule{Name: "never", When: func(*Evidence) bool { return false }})
	if got := e.Diagnose(NewEvidence()); got != nil {
		t.Errorf("conclusions = %v", got)
	}
}

func TestEngineAddRule(t *testing.T) {
	e := NewEngine(Rule{Name: "base", Priority: 1, When: func(*Evidence) bool { return true }, Cause: "c", Action: "a"})
	e.AddRule(Rule{Name: "learned", Priority: 5, When: func(ev *Evidence) bool { return ev.Holds("new-fault") }, Cause: "nc", Action: "na"})
	if e.Len() != 2 {
		t.Errorf("len = %d", e.Len())
	}
	got := e.Diagnose(NewEvidence().Fact("new-fault", true))
	if len(got) != 1 || got[0].Rule != "learned" {
		t.Errorf("learned rule should win: %v", got)
	}
}

// Property: a constraint admits exactly the closed interval [Min, Max].
func TestQuickConstraintInterval(t *testing.T) {
	f := func(min, max, v float64) bool {
		if min > max {
			min, max = max, min
		}
		c := Constraint{Min: min, Max: max}
		inRange := v >= min && v <= max
		return c.Violated(v) == !inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: baseline Adjust always makes the adjusted value admissible.
func TestQuickAdjustAdmits(t *testing.T) {
	f := func(v float64) bool {
		b := NewBaseline()
		b.Set(Constraint{Aspect: "x", Min: -1, Max: 1})
		b.Adjust("x", v)
		_, bad := b.Check("x", v)
		return !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Lines must render evidence in a fixed order — sorted values, sorted
// facts, then notes — regardless of map insertion order, since the lines
// feed byte-identity-gated decision traces.
func TestEvidenceLinesSorted(t *testing.T) {
	ev := NewEvidence().
		Observe("zeta.load", 4.5).
		Fact("proc.present", true).
		Observe("alpha.count", 2).
		Fact("listener.open", false).
		Note("first note").
		Observe("mid.ratio", 0.25).
		Note("second note")
	want := []string{
		"alpha.count=2",
		"mid.ratio=0.25",
		"zeta.load=4.5",
		"listener.open=false",
		"proc.present=true",
		"first note",
		"second note",
	}
	got := ev.Lines()
	if len(got) != len(want) {
		t.Fatalf("Lines() = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lines()[%d] = %q, want %q (full: %q)", i, got[i], want[i], got)
		}
	}
	// Repeat: the rendering must be stable across calls.
	again := ev.Lines()
	for i := range want {
		if again[i] != got[i] {
			t.Fatalf("Lines() unstable at %d: %q vs %q", i, again[i], got[i])
		}
	}
}
