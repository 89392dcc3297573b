// Package trace records the healing pipeline's decision points as a
// deterministic, seed-addressed structured event log: fault arrivals and
// injections, detections, diagnosis rule firings (with their evidence),
// repair actions, and operator page/dispatch events. Every event carries
// the simulated time, the host/tier/aspect it concerns and a stable
// monotonically-assigned ID, so a trace is byte-identical at any campaign
// worker and shard count and an individual decision can be addressed for
// counterfactual re-simulation. A trace is a record of the run, not an
// input to it: replay re-runs each recorded trial from its seed, which
// re-emits the same events with the same IDs.
//
// The Recorder is nil-safe: every method has a nil-receiver fast path, so
// emission sites pay one pointer compare when tracing is off. Emission
// never draws randomness and never schedules events — a traced run's
// simulated behaviour is byte-identical to an untraced one.
package trace

import "repro/internal/simclock"

// Trace levels. LevelDecisions records every pipeline event;
// LevelFull additionally captures the diagnosing part's evidence lines on
// diagnose events (same event stream, same IDs — only the evidence field
// differs).
const (
	LevelOff       = 0
	LevelDecisions = 1
	LevelFull      = 2

	// MaxLevel bounds option validation.
	MaxLevel = LevelFull
)

// Event kinds, in pipeline order.
const (
	// KindArrival is a fault-campaign arrival: the moment the campaign
	// fires a category (possibly tier-scoped), before the injector picks a
	// target. Arrivals are drawn from the campaign's own forked random
	// stream, so the seed fixes them; the event records them and replay
	// does not read it.
	KindArrival = "arrival"
	// KindFault is a concrete injected fault registered on a host.
	KindFault = "fault"
	// KindDetect is a fault's first detection (actor: agent, probe or
	// operator).
	KindDetect = "detect"
	// KindResolve is a successful repair closing the incident.
	KindResolve = "resolve"
	// KindDiagnose is a diagnosing part's conclusion: the rule that fired,
	// the root cause and the prescribed action. Counterfactuals target
	// these events.
	KindDiagnose = "diagnose"
	// KindHeal is a self-healing attempt's outcome.
	KindHeal = "heal"
	// KindPage is the manual-operations detection page: the sampled delay
	// until an operator notices a fault.
	KindPage = "page"
	// KindDispatch is the manual repair dispatch: the sampled repair
	// delay, escalated or not.
	KindDispatch = "dispatch"
)

// Event is one recorded decision point. Fields are omitempty so the JSONL
// form stays compact; field order is the canonical serialisation order.
type Event struct {
	ID       int           `json:"id"`
	At       simclock.Time `json:"at"`
	Kind     string        `json:"kind"`
	Category string        `json:"cat,omitempty"`
	Tier     string        `json:"tier,omitempty"`
	Host     string        `json:"host,omitempty"`
	Aspect   string        `json:"aspect,omitempty"`
	// Actor is who acted: an agent name, "probe", "operator", ...
	Actor string `json:"actor,omitempty"`
	// Action is the prescribed or attempted repair action.
	Action string `json:"action,omitempty"`
	// Rule is the diagnosis rule that fired ("" when no rule matched).
	Rule   string `json:"rule,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Evidence holds the diagnosing part's evidence lines (LevelFull).
	Evidence []string `json:"evidence,omitempty"`
	// Delay is the sampled operator delay on page/dispatch events.
	Delay simclock.Time `json:"delay,omitempty"`
	// Escalated marks an escalated dispatch or an escalating heal result.
	Escalated bool `json:"escalated,omitempty"`
	Healed    bool `json:"healed,omitempty"`
	Deferred  bool `json:"deferred,omitempty"`
}

// Counterfactual overrides one recorded diagnose decision during a
// replay: when the diagnose event with EventID is re-emitted, the healing
// part runs Action instead of the recorded prescription. The override
// applies once; everything after it is the alternative trajectory.
type Counterfactual struct {
	EventID int
	Action  string
}

// Recorder accumulates one trial's events. All emission points run
// serially inside simulation event callbacks (shard-prepared work replays
// its apply phase at the tick barrier), so no locking is needed; IDs are
// assigned in emission order, 1-based per trial.
type Recorder struct {
	level  int
	events []Event
	tierOf func(host string) string
	cf     *Counterfactual
	cfUsed bool
}

// New returns a recorder at the given level, or nil when the level
// disables tracing — callers thread the nil straight through to the
// emission sites, whose nil-receiver fast path makes disabled tracing
// free.
func New(level int) *Recorder {
	if level <= LevelOff {
		return nil
	}
	return &Recorder{level: level}
}

// WantEvidence reports whether diagnose events should carry evidence
// lines (LevelFull).
func (r *Recorder) WantEvidence() bool { return r != nil && r.level >= LevelFull }

// SetTierOf installs the host→tier resolver used to stamp events whose
// emission site only knows the host name.
func (r *Recorder) SetTierOf(fn func(host string) string) {
	if r != nil {
		r.tierOf = fn
	}
}

// SetCounterfactual arms a one-shot decision override (see
// Counterfactual). Must be called on a non-nil recorder.
func (r *Recorder) SetCounterfactual(cf Counterfactual) {
	r.cf = &cf
	r.cfUsed = false
}

// Alternative reports the armed counterfactual action when id names the
// overridden decision, at most once per run. id 0 (the disabled-tracing
// Diagnose return) never matches.
func (r *Recorder) Alternative(id int) (string, bool) {
	if r == nil || r.cf == nil || r.cfUsed || id == 0 || id != r.cf.EventID {
		return "", false
	}
	r.cfUsed = true
	return r.cf.Action, true
}

// Reset drops every recorded event and re-arms any counterfactual,
// returning the recorder to its post-New state — the trial-reuse hook
// Site.Reset calls.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
	r.cfUsed = false
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.events) == 0 {
		return nil
	}
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// emit assigns the next ID, resolves the tier when only the host is
// known, and appends. Emission is a pure slice append: no randomness, no
// scheduling, no I/O.
func (r *Recorder) emit(e Event) int {
	e.ID = len(r.events) + 1
	if e.Tier == "" && e.Host != "" && r.tierOf != nil {
		e.Tier = r.tierOf(e.Host)
	}
	r.events = append(r.events, e)
	return e.ID
}

// Arrival records a fault-campaign arrival (tier "" = site-wide).
func (r *Recorder) Arrival(at simclock.Time, category, tier string) {
	if r == nil {
		return
	}
	r.emit(Event{At: at, Kind: KindArrival, Category: category, Tier: tier})
}

// Fault records a concrete injected fault.
func (r *Recorder) Fault(at simclock.Time, category, host, aspect, detail string) {
	if r == nil {
		return
	}
	r.emit(Event{At: at, Kind: KindFault, Category: category, Host: host, Aspect: aspect, Detail: detail})
}

// Detect records a fault's first detection.
func (r *Recorder) Detect(at simclock.Time, host, aspect, by string) {
	if r == nil {
		return
	}
	r.emit(Event{At: at, Kind: KindDetect, Host: host, Aspect: aspect, Actor: by})
}

// Resolve records a successful repair.
func (r *Recorder) Resolve(at simclock.Time, host, aspect, by string) {
	if r == nil {
		return
	}
	r.emit(Event{At: at, Kind: KindResolve, Host: host, Aspect: aspect, Actor: by})
}

// Diagnose records a diagnosing part's conclusion and returns the event
// ID (0 when tracing is off) so the caller can consult Alternative.
func (r *Recorder) Diagnose(at simclock.Time, actor, host, aspect, rule, cause, action string, evidence []string) int {
	if r == nil {
		return 0
	}
	return r.emit(Event{At: at, Kind: KindDiagnose, Host: host, Aspect: aspect,
		Actor: actor, Rule: rule, Detail: cause, Action: action, Evidence: evidence})
}

// Heal records a self-healing attempt's outcome.
func (r *Recorder) Heal(at simclock.Time, actor, host, aspect, action, detail string, healed, deferred, escalated bool) {
	if r == nil {
		return
	}
	r.emit(Event{At: at, Kind: KindHeal, Host: host, Aspect: aspect, Actor: actor,
		Action: action, Detail: detail, Healed: healed, Deferred: deferred, Escalated: escalated})
}

// Page records the manual-operations detection page and its sampled
// delay.
func (r *Recorder) Page(at simclock.Time, category, host, aspect string, delay simclock.Time) {
	if r == nil {
		return
	}
	r.emit(Event{At: at, Kind: KindPage, Category: category, Host: host, Aspect: aspect,
		Actor: "operator", Delay: delay})
}

// Dispatch records the manual repair dispatch, its sampled delay and
// whether it took the escalated expert path.
func (r *Recorder) Dispatch(at simclock.Time, category, host, aspect string, delay simclock.Time, escalated bool) {
	if r == nil {
		return
	}
	r.emit(Event{At: at, Kind: KindDispatch, Category: category, Host: host, Aspect: aspect,
		Actor: "operator", Delay: delay, Escalated: escalated})
}
