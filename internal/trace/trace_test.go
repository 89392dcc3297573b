package trace

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/simclock"
)

// A nil recorder must absorb every call without panicking and report the
// disabled state — the zero-cost path every emission site relies on.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.WantEvidence() {
		t.Fatal("nil recorder wants evidence")
	}
	r.SetTierOf(func(string) string { return "x" })
	r.Arrival(1, "midcrash", "")
	r.Fault(1, "midcrash", "h1", "svc.db", "crashed")
	r.Detect(2, "h1", "svc.db", "probe")
	r.Resolve(3, "h1", "svc.db", "operator")
	if id := r.Diagnose(2, "agent", "h1", "svc.db", "crashed", "cause", "restart-service", nil); id != 0 {
		t.Fatalf("nil recorder Diagnose id = %d, want 0", id)
	}
	r.Heal(2, "agent", "h1", "svc.db", "restart-service", "", true, true, false)
	r.Page(1, "midcrash", "h1", "svc.db", simclock.Hour)
	r.Dispatch(2, "midcrash", "h1", "svc.db", simclock.Hour, false)
	if _, ok := r.Alternative(1); ok {
		t.Fatal("nil recorder returned an alternative")
	}
	r.Reset()
	if r.Events() != nil {
		t.Fatal("nil recorder holds events")
	}
}

func TestNewLevelOffReturnsNil(t *testing.T) {
	if New(LevelOff) != nil {
		t.Fatal("New(LevelOff) != nil")
	}
	if New(-3) != nil {
		t.Fatal("New(-3) != nil")
	}
	if r := New(LevelDecisions); r == nil || r.WantEvidence() {
		t.Fatalf("New(LevelDecisions) = %v, want a recorder that wants no evidence", r)
	}
	if r := New(LevelFull); !r.WantEvidence() {
		t.Fatal("New(LevelFull) does not want evidence")
	}
}

// IDs are monotone from 1 in emission order, and the tier resolver stamps
// events that only know their host.
func TestIDsAndTierStamping(t *testing.T) {
	r := New(LevelFull)
	r.SetTierOf(func(host string) string {
		if host == "h1" {
			return "web"
		}
		return ""
	})
	r.Arrival(1, "midcrash", "web")
	r.Fault(2, "midcrash", "h1", "svc.db", "crashed")
	id := r.Diagnose(3, "agent-x", "h1", "svc.db", "crashed", "service crashed", "restart-service", []string{"up=0"})
	r.Heal(4, "agent-x", "h1", "svc.db", "restart-service", "ok", true, false, false)

	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.ID != i+1 {
			t.Fatalf("event %d has ID %d, want %d", i, e.ID, i+1)
		}
	}
	if id != 3 {
		t.Fatalf("Diagnose returned id %d, want 3", id)
	}
	if evs[1].Tier != "web" || evs[2].Tier != "web" {
		t.Fatalf("tier not stamped from host: %q, %q", evs[1].Tier, evs[2].Tier)
	}
	if evs[0].Tier != "web" {
		t.Fatalf("explicit arrival tier lost: %q", evs[0].Tier)
	}
}

func TestResetClearsEventsAndRearmsCounterfactual(t *testing.T) {
	r := New(LevelDecisions)
	r.SetCounterfactual(Counterfactual{EventID: 1, Action: "reboot-host"})
	id := r.Diagnose(1, "a", "h", "s", "rule", "cause", "restart-service", nil)
	if alt, ok := r.Alternative(id); !ok || alt != "reboot-host" {
		t.Fatalf("Alternative(%d) = %q, %t", id, alt, ok)
	}
	if _, ok := r.Alternative(id); ok {
		t.Fatal("counterfactual applied twice")
	}
	r.Reset()
	if len(r.events) != 0 {
		t.Fatalf("%d events after Reset", len(r.events))
	}
	id = r.Diagnose(1, "a", "h", "s", "rule", "cause", "restart-service", nil)
	if id != 1 {
		t.Fatalf("post-Reset Diagnose id = %d, want 1", id)
	}
	if alt, ok := r.Alternative(id); !ok || alt != "reboot-host" {
		t.Fatalf("counterfactual not re-armed after Reset: %q, %t", alt, ok)
	}
}

func TestAlternativeMatchesOnlyTargetEvent(t *testing.T) {
	r := New(LevelDecisions)
	r.SetCounterfactual(Counterfactual{EventID: 2, Action: "manual-repair"})
	id1 := r.Diagnose(1, "a", "h", "s", "rule", "cause", "restart-service", nil)
	if _, ok := r.Alternative(id1); ok {
		t.Fatal("alternative fired on the wrong event")
	}
	if _, ok := r.Alternative(0); ok {
		t.Fatal("alternative fired on id 0")
	}
	id2 := r.Diagnose(2, "a", "h", "s", "rule", "cause", "restart-service", nil)
	if alt, ok := r.Alternative(id2); !ok || alt != "manual-repair" {
		t.Fatalf("Alternative(%d) = %q, %t", id2, alt, ok)
	}
}

// Events returns a copy: mutating it must not corrupt the recorder.
func TestEventsReturnsCopy(t *testing.T) {
	r := New(LevelDecisions)
	r.Arrival(1, "human", "")
	evs := r.Events()
	evs[0].Kind = "mutated"
	if got := r.Events()[0].Kind; got != KindArrival {
		t.Fatalf("recorder state mutated through Events copy: %q", got)
	}
}

// The JSON form is the trace-file contract: compact keys, omitempty
// optionals, deterministic field order.
func TestEventJSONShape(t *testing.T) {
	e := Event{ID: 7, At: simclock.Time(90), Kind: KindDiagnose, Host: "h1", Aspect: "svc.db",
		Actor: "agent-x", Rule: "crashed", Detail: "service crashed", Action: "restart-service"}
	js, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":7,"at":90,"kind":"diagnose","host":"h1","aspect":"svc.db","actor":"agent-x","action":"restart-service","rule":"crashed","detail":"service crashed"}`
	if string(js) != want {
		t.Fatalf("event JSON:\n got %s\nwant %s", js, want)
	}
	var back Event
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, e) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, e)
	}
}
