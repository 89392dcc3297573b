// Package diagnose implements the intelliagents' constraint-based causal
// reasoning (§3.3): flat textual constraint tables holding minimum and
// maximum values for software and hardware variables (the static
// ontologies' contribution to reasoning), evidence gathered statically
// (parsing error logs) and dynamically (running administration commands),
// and prioritised causal rules mapping evidence to a root cause and a
// prescribed repair action.
package diagnose

import (
	"fmt"
	"sort"
)

// Constraint bounds one measured aspect. A measurement violates the
// constraint when it falls outside [Min, Max].
type Constraint struct {
	Aspect string
	Min    float64
	Max    float64
	Unit   string
}

// Violated reports whether v breaks the constraint.
func (c Constraint) Violated(v float64) bool { return v < c.Min || v > c.Max }

func (c Constraint) String() string {
	return fmt.Sprintf("%s in [%g, %g] %s", c.Aspect, c.Min, c.Max, c.Unit)
}

// Baseline is a set of constraints for one server/application combination,
// set with expert help (§3.6). The paper's tuning loop ("every time a
// baseline setting was not proven to be correct, we adjusted it
// accordingly") is administrator work outside the measured year, so the
// simulated agents run the tuned tables as fixed ones.
type Baseline struct {
	byAspect map[string]Constraint
}

// NewBaseline returns an empty baseline.
func NewBaseline() *Baseline {
	return &Baseline{byAspect: make(map[string]Constraint)}
}

// Set installs or replaces a constraint.
func (b *Baseline) Set(c Constraint) { b.byAspect[c.Aspect] = c }

// Get returns the constraint for an aspect.
func (b *Baseline) Get(aspect string) (Constraint, bool) {
	c, ok := b.byAspect[aspect]
	return c, ok
}

// Check evaluates a measurement; it returns a violation description and
// true when the constraint is broken.
func (b *Baseline) Check(aspect string, v float64) (string, bool) {
	c, ok := b.byAspect[aspect]
	if !ok || !c.Violated(v) {
		return "", false
	}
	return fmt.Sprintf("%s=%g outside [%g, %g] %s", aspect, v, c.Min, c.Max, c.Unit), true
}

// Evidence is what the diagnosing part gathered: numeric observations
// (dynamic commands), boolean facts (log parsing, probe exits) and free
// notes.
type Evidence struct {
	values map[string]float64
	facts  map[string]bool
	Notes  []string
}

// NewEvidence returns an empty evidence set.
func NewEvidence() *Evidence {
	return &Evidence{values: make(map[string]float64), facts: make(map[string]bool)}
}

// Observe records a numeric observation.
func (e *Evidence) Observe(key string, v float64) *Evidence {
	e.values[key] = v
	return e
}

// Fact records a boolean fact.
func (e *Evidence) Fact(key string, v bool) *Evidence {
	e.facts[key] = v
	return e
}

// Note appends a free-form note.
func (e *Evidence) Note(format string, args ...any) *Evidence {
	e.Notes = append(e.Notes, fmt.Sprintf(format, args...))
	return e
}

// Holds reports whether the fact was recorded true.
func (e *Evidence) Holds(key string) bool { return e.facts[key] }

// Above reports whether a recorded value exceeds x.
func (e *Evidence) Above(key string, x float64) bool {
	v, ok := e.values[key]
	return ok && v > x
}

// Lines renders the evidence deterministically for decision traces:
// numeric observations sorted by key as "key=value", then boolean facts
// sorted by key as "key=true|false", then notes in recording order. The
// sorted passes keep map iteration out of any trace-observable path.
func (e *Evidence) Lines() []string {
	out := make([]string, 0, len(e.values)+len(e.facts)+len(e.Notes))
	keys := make([]string, 0, len(e.values))
	for k := range e.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%g", k, e.values[k]))
	}
	keys = keys[:0]
	for k := range e.facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%t", k, e.facts[k]))
	}
	return append(out, e.Notes...)
}

// Rule maps an evidence pattern to a root cause and prescribed action.
// Higher-priority rules are tried first, and the first match wins.
type Rule struct {
	Name     string
	Priority int
	When     func(e *Evidence) bool
	Cause    string
	Action   string
}

// Conclusion is a matched rule.
type Conclusion struct {
	Rule   string
	Cause  string
	Action string
}

// Engine is an ordered rule set.
type Engine struct {
	rules []Rule
}

// NewEngine returns an engine with the given rules.
func NewEngine(rules ...Rule) *Engine {
	e := &Engine{rules: append([]Rule(nil), rules...)}
	sort.SliceStable(e.rules, func(i, j int) bool { return e.rules[i].Priority > e.rules[j].Priority })
	return e
}

// Diagnose evaluates the evidence and returns the highest-priority
// matching rule's conclusion. With no matching rule it reports false —
// the fault is obscure and must go to a human.
func (e *Engine) Diagnose(ev *Evidence) (Conclusion, bool) {
	for _, r := range e.rules {
		if r.When(ev) {
			return Conclusion{Rule: r.Name, Cause: r.Cause, Action: r.Action}, true
		}
	}
	return Conclusion{}, false
}
