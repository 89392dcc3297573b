package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"

	qoscluster "repro"
	"repro/internal/campaign"
	"repro/internal/trace"
)

// TraceTrial is one recorded trial: its matrix coordinate, the metrics
// the recorded run produced, and the decision events in emission order.
type TraceTrial struct {
	Trial   campaign.Trial
	Metrics map[string]float64
	Events  []trace.Event
}

// TraceFile is a parsed campaign trace: the header identity plus every
// trial block in matrix order.
type TraceFile struct {
	Name       string
	Level      int
	Matrix     campaign.Matrix
	Topologies map[string]string
	Trials     []TraceTrial
}

// ReadTraceFile loads and parses a trace file written by a traced
// campaign run.
func ReadTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	defer f.Close()
	tf, err := readTrace(f)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return tf, nil
}

// readTrace parses the JSONL stream: header, then trial lines each
// followed by that trial's event lines. Dispatch is by key presence — a
// line with "trial" opens a block, a line with "id" is an event.
func readTrace(r io.Reader) (*TraceFile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("line 1: not a qossim trace: empty file")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Version == 0 {
		return nil, fmt.Errorf("line 1: not a qossim trace (want a {\"qossim_trace\":%d,...} header)", traceVersion)
	}
	if hdr.Version != traceVersion {
		return nil, fmt.Errorf("line 1: trace format version %d; this build reads version %d", hdr.Version, traceVersion)
	}
	tf := &TraceFile{Name: hdr.Name, Level: hdr.Level, Topologies: hdr.Topologies}
	if err := json.Unmarshal(hdr.Matrix, &tf.Matrix); err != nil {
		return nil, fmt.Errorf("line 1: malformed matrix: %w", err)
	}

	for line := 2; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var probe struct {
			Trial   *campaign.Trial    `json:"trial"`
			Metrics map[string]float64 `json:"metrics"`
			ID      int                `json:"id"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("line %d: malformed trace line: %w", line, err)
		}
		switch {
		case probe.Trial != nil:
			tf.Trials = append(tf.Trials, TraceTrial{Trial: *probe.Trial, Metrics: probe.Metrics})
		case probe.ID > 0:
			if len(tf.Trials) == 0 {
				return nil, fmt.Errorf("line %d: event before any trial record", line)
			}
			var e trace.Event
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("line %d: malformed trace line: %w", line, err)
			}
			last := &tf.Trials[len(tf.Trials)-1]
			last.Events = append(last.Events, e)
		default:
			return nil, fmt.Errorf("line %d: malformed trace line: neither a trial record nor an event", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tf.Trials) == 0 {
		return nil, fmt.Errorf("trace holds no trials")
	}
	return tf, nil
}

// verifyTopologies refuses to replay against topologies that no longer
// match the recorded fingerprints: a seed only reproduces a run on the
// site it was recorded on.
func verifyTopologies(tf *TraceFile) error {
	names := make([]string, 0, len(tf.Topologies))
	for name := range tf.Topologies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		current, err := topologyFingerprint(name)
		if err != nil {
			return err
		}
		if recorded := tf.Topologies[name]; recorded != current {
			return fmt.Errorf("site %q: trace was recorded on a different topology (fingerprint %s, current %s)", name, recorded, current)
		}
	}
	return nil
}

// ReplayTrace re-runs every recorded trial from its seed and coordinate
// and verifies each trial reproduces its recorded metrics exactly. A
// trial's fault arrivals come from the campaign's own forked random
// stream, so the seed already fixes them; the recorded arrival events
// are a record of the run, not an input. The returned result aggregates
// the replayed trials the same way the original campaign did, so its
// JSON is byte-identical to the original campaign output.
func ReplayTrace(tf *TraceFile, workers int) (*campaign.Result, error) {
	if err := verifyTopologies(tf); err != nil {
		return nil, err
	}
	enumerated := tf.Matrix.Trials()
	if len(enumerated) != len(tf.Trials) {
		return nil, fmt.Errorf("trace holds %d trials but its matrix enumerates %d", len(tf.Trials), len(enumerated))
	}
	for i, rec := range tf.Trials {
		if rec.Trial != enumerated[i] {
			return nil, fmt.Errorf("trial %d: recorded coordinate %+v does not match the matrix enumeration %+v", i, rec.Trial, enumerated[i])
		}
	}
	res, err := campaign.Run(tf.Name, tf.Matrix, workers, RunTrial)
	if err != nil {
		return nil, err
	}
	if errs := res.Errs(); len(errs) > 0 {
		first := errs[0]
		return res, fmt.Errorf("replay: trial %d (seed %d) failed: %s", first.Trial.Index, first.Trial.Seed, first.Err)
	}
	for i, tr := range res.Trials {
		if !reflect.DeepEqual(tr.Metrics, tf.Trials[i].Metrics) {
			return res, fmt.Errorf("replay diverged: trial %d (seed %d) metrics differ from the recorded run: %s",
				i, tr.Trial.Seed, firstMetricDiff(tf.Trials[i].Metrics, tr.Metrics))
		}
	}
	return res, nil
}

// firstMetricDiff names one differing key for the divergence error —
// enough to start debugging without dumping both maps.
func firstMetricDiff(want, got map[string]float64) string {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, wok := want[k]
		g, gok := got[k]
		if !wok {
			return fmt.Sprintf("unexpected metric %q = %g", k, g)
		}
		if !gok {
			return fmt.Sprintf("missing metric %q (recorded %g)", k, w)
		}
		if w != g {
			return fmt.Sprintf("%q: recorded %g, replayed %g", k, w, g)
		}
	}
	return "maps differ" // unreachable when called after DeepEqual failed on real data
}

// runReplayTrial rebuilds a recorded trial's site from its coordinate,
// with tracing at level, an optional counterfactual override and an
// optional batch-rescue ablation, and runs it through the normal scenario
// metrics path.
func runReplayTrial(t campaign.Trial, level int, cf *trace.Counterfactual, noRescue bool) (map[string]float64, error) {
	site, err := buildTrialSite(t, func(o *qoscluster.Options) {
		o.TraceLevel = level
		o.Counterfactual = cf
		o.NoBatchRescue = o.NoBatchRescue || noRescue
	})
	if err != nil {
		return nil, err
	}
	return runSiteTrial(site, t)
}

// counterfactualPool is the default set of alternative repair actions a
// counterfactual explores when the caller names none: the heavy-handed
// host bounce, the human fallback, and the lightest service-level repair.
var counterfactualPool = []string{"reboot-host", "manual-repair", "restart-service"}

// defaultAlternatives picks two alternatives distinct from the recorded
// action.
func defaultAlternatives(recorded string) []string {
	out := make([]string, 0, 2)
	for _, a := range counterfactualPool {
		if a != recorded && len(out) < 2 {
			out = append(out, a)
		}
	}
	return out
}

// parseTarget resolves a "[trial:]event-id" counterfactual target against
// the trace. The bare "event-id" form is only unambiguous when the trace
// holds a single trial.
func parseTarget(tf *TraceFile, target string) (trialIdx, eventID int, err error) {
	parts := strings.Split(target, ":")
	switch len(parts) {
	case 1:
		if len(tf.Trials) != 1 {
			return 0, 0, fmt.Errorf("counterfactual target %q: trace holds %d trials; use the trial:event form", target, len(tf.Trials))
		}
		trialIdx = 0
	case 2:
		trialIdx, err = strconv.Atoi(parts[0])
		if err != nil || trialIdx < 0 || trialIdx >= len(tf.Trials) {
			return 0, 0, fmt.Errorf("counterfactual target %q: trial index must be 0..%d", target, len(tf.Trials)-1)
		}
	default:
		return 0, 0, fmt.Errorf("counterfactual target %q: want \"event-id\" or \"trial:event-id\"", target)
	}
	eventID, err = strconv.Atoi(parts[len(parts)-1])
	if err != nil || eventID <= 0 {
		return 0, 0, fmt.Errorf("counterfactual target %q: event id must be a positive integer", target)
	}
	return trialIdx, eventID, nil
}

// counterfactualKeys are the outcome metrics the diff table reports.
var counterfactualKeys = []string{"downtime_h/total", "mttr_mean_s", "jobs_failed", "jobs_resubmitted"}

// CounterfactualTable replays one recorded trial several times, each time
// overriding the targeted diagnose decision with an alternative repair
// action ("no-batch-rescue" instead disables DGSPL rescue for the whole
// replay), and renders the outcome diff against the recorded run. Empty
// alts picks two defaults distinct from the recorded action.
func CounterfactualTable(tf *TraceFile, target string, alts []string, workers int) (string, error) {
	if err := verifyTopologies(tf); err != nil {
		return "", err
	}
	if tf.Level <= trace.LevelOff {
		return "", fmt.Errorf("trace was recorded with tracing off; no decision events to anchor a counterfactual")
	}
	trialIdx, eventID, err := parseTarget(tf, target)
	if err != nil {
		return "", err
	}
	rec := tf.Trials[trialIdx]
	var anchor *trace.Event
	for i := range rec.Events {
		if rec.Events[i].ID == eventID {
			anchor = &rec.Events[i]
			break
		}
	}
	if anchor == nil {
		return "", fmt.Errorf("counterfactual target %s: trial %d has no event with id %d", target, trialIdx, eventID)
	}
	if anchor.Kind != trace.KindDiagnose {
		return "", fmt.Errorf("counterfactual target %s: event %d is a %q event; only diagnose decisions can be overridden", target, eventID, anchor.Kind)
	}
	if len(alts) == 0 {
		alts = defaultAlternatives(anchor.Action)
	}
	// Report the outcome keys the recorded scenario actually produced;
	// the canonical four only exist for the year scenario.
	keys := make([]string, 0, len(counterfactualKeys))
	for _, k := range counterfactualKeys {
		if _, ok := rec.Metrics[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		for k := range rec.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) > len(counterfactualKeys) {
			keys = keys[:len(counterfactualKeys)]
		}
	}

	// Replay each alternative at the recorded trace level: the recorder
	// reproduces the original event IDs, so the override anchors to the
	// same decision the trace recorded.
	results := make([]map[string]float64, len(alts))
	errs := make([]error, len(alts))
	if workers <= 0 || workers > len(alts) {
		workers = len(alts)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, alt := range alts {
		wg.Add(1)
		go func(i int, alt string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cf := &trace.Counterfactual{EventID: eventID, Action: alt}
			noRescue := false
			if alt == "no-batch-rescue" {
				cf, noRescue = nil, true
			}
			level := tf.Level
			if cf == nil {
				level = 0 // nothing to anchor; skip re-recording
			}
			results[i], errs[i] = runReplayTrial(rec.Trial, level, cf, noRescue)
		}(i, alt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return "", fmt.Errorf("counterfactual %q: %w", alts[i], err)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Counterfactual at event %d (trial %d, seed %d): t=%s %s %s/%s rule=%s action=%s\n",
		eventID, trialIdx, rec.Trial.Seed, anchor.At, anchor.Actor, anchor.Host, anchor.Aspect, anchor.Rule, anchor.Action)
	fmt.Fprintf(&b, "%-18s", "alternative")
	for _, k := range keys {
		fmt.Fprintf(&b, " %16s %10s", k, "delta")
	}
	b.WriteByte('\n')
	row := func(name string, vals map[string]float64, base map[string]float64) {
		fmt.Fprintf(&b, "%-18s", name)
		for _, k := range keys {
			if base == nil {
				fmt.Fprintf(&b, " %16.3f %10s", vals[k], "-")
			} else {
				fmt.Fprintf(&b, " %16.3f %+10.3f", vals[k], vals[k]-base[k])
			}
		}
		b.WriteByte('\n')
	}
	row("recorded", rec.Metrics, nil)
	for i, alt := range alts {
		row(alt, results[i], rec.Metrics)
	}
	return b.String(), nil
}
