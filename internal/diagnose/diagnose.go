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
	"strconv"
	"strings"
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
// set with expert help and adjusted from observation (§3.6: "every time a
// baseline setting was not proven to be correct, we adjusted it
// accordingly").
type Baseline struct {
	byAspect map[string]Constraint
	// Adjustments counts how often each aspect's bounds were corrected.
	Adjustments map[string]int
}

// NewBaseline returns an empty baseline.
func NewBaseline() *Baseline {
	return &Baseline{byAspect: make(map[string]Constraint), Adjustments: make(map[string]int)}
}

// Set installs or replaces a constraint.
func (b *Baseline) Set(c Constraint) { b.byAspect[c.Aspect] = c }

// Get returns the constraint for an aspect.
func (b *Baseline) Get(aspect string) (Constraint, bool) {
	c, ok := b.byAspect[aspect]
	return c, ok
}

// Aspects lists constrained aspects, sorted.
func (b *Baseline) Aspects() []string {
	out := make([]string, 0, len(b.byAspect))
	for a := range b.byAspect {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
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

// Adjust widens the constraint to admit v (the observed-correct value) and
// records the adjustment, mirroring the paper's baseline tuning loop.
func (b *Baseline) Adjust(aspect string, v float64) {
	c, ok := b.byAspect[aspect]
	if !ok {
		return
	}
	if v < c.Min {
		c.Min = v
	}
	if v > c.Max {
		c.Max = v
	}
	b.byAspect[aspect] = c
	b.Adjustments[aspect]++
}

// Encode renders the baseline as a flat constraint table:
//
//	limit|aspect|min|max|unit
func (b *Baseline) Encode() []string {
	lines := []string{"# baseline constraint table"}
	for _, a := range b.Aspects() {
		c := b.byAspect[a]
		lines = append(lines, fmt.Sprintf("limit|%s|%g|%g|%s", c.Aspect, c.Min, c.Max, c.Unit))
	}
	return lines
}

// DecodeBaseline parses lines produced by Encode.
func DecodeBaseline(lines []string) (*Baseline, error) {
	b := NewBaseline()
	for i, line := range lines {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		f := strings.Split(t, "|")
		if len(f) != 5 || f[0] != "limit" {
			return nil, fmt.Errorf("diagnose: baseline line %d malformed: %q", i+1, line)
		}
		var c Constraint
		c.Aspect = f[1]
		var err error
		if c.Min, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("diagnose: baseline line %d bad min: %q", i+1, f[2])
		}
		if c.Max, err = strconv.ParseFloat(f[3], 64); err != nil {
			return nil, fmt.Errorf("diagnose: baseline line %d bad max: %q", i+1, f[3])
		}
		c.Unit = f[4]
		b.Set(c)
	}
	return b, nil
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

// Value returns a numeric observation (0, false when absent).
func (e *Evidence) Value(key string) (float64, bool) {
	v, ok := e.values[key]
	return v, ok
}

// Holds reports whether the fact was recorded true.
func (e *Evidence) Holds(key string) bool { return e.facts[key] }

// Above reports whether a recorded value exceeds x.
func (e *Evidence) Above(key string, x float64) bool {
	v, ok := e.values[key]
	return ok && v > x
}

// Below reports whether a recorded value is under x.
func (e *Evidence) Below(key string, x float64) bool {
	v, ok := e.values[key]
	return ok && v < x
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
// Higher-priority rules are tried first; the first match wins unless
// Continue is set, in which case matching continues (multiple causes).
type Rule struct {
	Name     string
	Priority int
	When     func(e *Evidence) bool
	Cause    string
	Action   string
	Continue bool
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

// AddRule inserts a rule, keeping priority order. The paper grows this set
// over time: "every time a fault was dealt with manually, we added a new
// troubleshooting procedure to the intelliagent source code".
func (e *Engine) AddRule(r Rule) {
	e.rules = append(e.rules, r)
	sort.SliceStable(e.rules, func(i, j int) bool { return e.rules[i].Priority > e.rules[j].Priority })
}

// Len reports the number of rules.
func (e *Engine) Len() int { return len(e.rules) }

// Diagnose evaluates the evidence and returns conclusions in priority
// order. With no matching rule it returns nil — the fault is obscure and
// must go to a human.
func (e *Engine) Diagnose(ev *Evidence) []Conclusion {
	var out []Conclusion
	for _, r := range e.rules {
		if !r.When(ev) {
			continue
		}
		out = append(out, Conclusion{Rule: r.Name, Cause: r.Cause, Action: r.Action})
		if !r.Continue {
			break
		}
	}
	return out
}
