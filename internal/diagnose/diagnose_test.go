package diagnose

import (
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
	if _, ok := DefaultNetBaseline().Get("net.errors"); !ok {
		t.Error("net baseline missing errors constraint")
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
	if !ev.Holds("db.refused") || ev.Holds("other") {
		t.Error("Holds broken")
	}
	if !ev.Above("scanrate", 800) || ev.Above("scanrate", 1000) || ev.Above("missing", 0) {
		t.Error("Above broken")
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
	got, ok := e.Diagnose(NewEvidence())
	if want := (Conclusion{Rule: "high", Cause: "c-high", Action: "a-high"}); !ok || got != want {
		t.Errorf("conclusion = %v, %v; want %v", got, ok, want)
	}
}

func TestEngineNoMatch(t *testing.T) {
	e := NewEngine(Rule{Name: "never", When: func(*Evidence) bool { return false }})
	if got, ok := e.Diagnose(NewEvidence()); ok {
		t.Errorf("conclusion = %v", got)
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
