package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	qoscluster "repro"
	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// traceMatrix is the shared one-cell trace-test matrix: two seeds of one
// day.
func traceMatrix(site, mode string) campaign.Matrix {
	return campaign.Matrix{
		Seeds:     campaign.Seeds(7, 2),
		Scenarios: []string{"year"},
		Sites:     []string{site},
		Modes:     []string{mode},
		Days:      1,
	}
}

// fullTrace is the trace tests' execution: full evidence capture on the
// given workers.
func fullTrace(workers int) Exec {
	return Exec{Workers: workers, TraceLevel: trace.LevelFull}
}

// registerFastFaults installs an override that drives faults hard enough
// for a short trial to accumulate agent decisions; the returned func
// deregisters it.
func registerFastFaults(name string) func() {
	RegisterOverride(name, func(o *qoscluster.Options) {
		o.Faults = []faultinject.Spec{
			{Category: metrics.CatMidCrash, MeanInterarrival: 6 * simclock.Hour, Window: faultinject.AnyTime},
			{Category: metrics.CatFrontEnd, MeanInterarrival: 8 * simclock.Hour, Window: faultinject.AnyTime},
		}
	})
	return func() { RegisterOverride(name, nil) }
}

// TestTraceEquivalence is the determinism gate for the trace subsystem:
// the encoded trace file must be byte-identical at any campaign worker
// count and any intra-trial shard count. If any byte moves, an emission
// site has leaked scheduling or map order into the trace; fix the
// emitter, do not regenerate expectations.
func TestTraceEquivalence(t *testing.T) {
	cells := []struct {
		site string
		mode string
	}{
		{"paper", "manual"},
		{"paper", "agents"},
		{"small", "agents"},
		{"megasite-150", "manual"},
	}
	for _, cell := range cells {
		t.Run(fmt.Sprintf("%s-%s", cell.site, cell.mode), func(t *testing.T) {
			t.Parallel()
			if testing.Short() && (cell.site == "megasite-150" || cell.site+cell.mode == "paperagents") {
				t.Skip("long cell; run without -short for the full gate")
			}
			m := traceMatrix(cell.site, cell.mode)
			_, want, err := RunTracedCampaign("trace-equivalence", m, fullTrace(1))
			if err != nil {
				t.Fatalf("baseline traced campaign: %v", err)
			}
			for _, workers := range []int{1, 8} {
				for _, shards := range []int{1, 8} {
					if workers == 1 && shards == 1 {
						continue
					}
					exec := fullTrace(workers)
					exec.Shards = shards
					_, got, err := RunTracedCampaign("trace-equivalence", m, exec)
					if err != nil {
						t.Fatalf("traced campaign (%d workers, %d shards): %v", workers, shards, err)
					}
					if !bytes.Equal(want, got) {
						t.Errorf("trace diverged (site %s, mode %s, %d workers, %d shards):\n%s",
							cell.site, cell.mode, workers, shards, firstDiff(want, got))
					}
				}
			}
		})
	}
}

// TestTraceReuseReset proves Site.Reset clears recorder state on the
// pooled ReuseRunner path: the second trial of a two-seed pooled campaign
// (which reuses the first trial's site skeleton) must record exactly what
// a fresh site at that seed records.
func TestTraceReuseReset(t *testing.T) {
	t.Parallel()
	pooledM := traceMatrix("small", "agents") // seeds {7, 8}, one worker => one reused site
	freshM := pooledM
	freshM.Seeds = campaign.Seeds(8, 1)
	_, pooledBuf, err := RunTracedCampaign("trace-reuse", pooledM, fullTrace(1))
	if err != nil {
		t.Fatalf("pooled traced campaign: %v", err)
	}
	_, freshBuf, err := RunTracedCampaign("trace-fresh", freshM, fullTrace(1))
	if err != nil {
		t.Fatalf("fresh traced campaign: %v", err)
	}
	pooled, err := readTrace(bytes.NewReader(pooledBuf))
	if err != nil {
		t.Fatalf("parse pooled trace: %v", err)
	}
	fresh, err := readTrace(bytes.NewReader(freshBuf))
	if err != nil {
		t.Fatalf("parse fresh trace: %v", err)
	}
	reused, scratch := pooled.Trials[1], fresh.Trials[0]
	if reused.Trial.Seed != 8 || scratch.Trial.Seed != 8 {
		t.Fatalf("trial selection wrong: reused seed %d, fresh seed %d", reused.Trial.Seed, scratch.Trial.Seed)
	}
	if len(reused.Events) != len(scratch.Events) {
		t.Fatalf("reused site recorded %d events, fresh site %d", len(reused.Events), len(scratch.Events))
	}
	for i := range reused.Events {
		if !reflect.DeepEqual(reused.Events[i], scratch.Events[i]) {
			t.Fatalf("event %d differs on the reused site:\nreused: %+v\nfresh:  %+v", i, reused.Events[i], scratch.Events[i])
		}
	}
}

// TestTracedCampaignMatchesUntraced pins the execution-knob contract:
// enabling tracing must not move a byte of the campaign result.
func TestTracedCampaignMatchesUntraced(t *testing.T) {
	t.Parallel()
	m := traceMatrix("small", "agents")
	traced, _, err := RunTracedCampaign("knob", m, fullTrace(2))
	if err != nil {
		t.Fatalf("traced campaign: %v", err)
	}
	untraced, err := campaign.Run("knob", m, 2, NewPooledRunFunc())
	if err != nil {
		t.Fatalf("untraced campaign: %v", err)
	}
	// The trace level is no part of the matrix, so the records must
	// agree byte for byte.
	want, err := untraced.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("tracing moved campaign bytes:\n%s", firstDiff(want, got))
	}
}

// TestTraceEventOrder is the nondeterminism-audit regression: event IDs
// count 1..N, times never go backwards, and a repeat run reproduces the
// stream exactly.
func TestTraceEventOrder(t *testing.T) {
	t.Parallel()
	defer registerFastFaults("trace-order-faults")()
	m := traceMatrix("small", "agents")
	m.Overrides = []string{"trace-order-faults"}
	m.Days = 2
	_, buf, err := RunTracedCampaign("trace-order", m, fullTrace(2))
	if err != nil {
		t.Fatalf("traced campaign: %v", err)
	}
	tf, err := readTrace(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	total := 0
	for ti, tr := range tf.Trials {
		for i, e := range tr.Events {
			if e.ID != i+1 {
				t.Fatalf("trial %d event %d has id %d; ids must count 1..N", ti, i, e.ID)
			}
			if i > 0 && e.At < tr.Events[i-1].At {
				t.Fatalf("trial %d event %d at %v precedes event %d at %v", ti, e.ID, e.At, i, tr.Events[i-1].At)
			}
		}
		total += len(tr.Events)
	}
	if total == 0 {
		t.Fatal("fast-fault trace recorded no events; the order check tested nothing")
	}
	_, again, err := RunTracedCampaign("trace-order", m, fullTrace(2))
	if err != nil {
		t.Fatalf("repeat traced campaign: %v", err)
	}
	if !bytes.Equal(buf, again) {
		t.Errorf("repeat run moved trace bytes:\n%s", firstDiff(buf, again))
	}
}

// TestReplayReproducesCampaign is the replay gate: re-running every
// recorded trial from its seed must reproduce the original campaign
// record byte for byte. The tiered manual cell records tier-scoped
// arrivals, so the gate also covers the campaign's domain draws.
func TestReplayReproducesCampaign(t *testing.T) {
	t.Parallel()
	defer registerFastFaults("trace-replay-faults")()
	agents := traceMatrix("small", "agents")
	tiered := traceMatrix("webfarm", "manual")
	tiered.TierFaults = []string{"web=2"}
	for _, tc := range []struct {
		name       string
		m          campaign.Matrix
		tierScoped bool
	}{
		{"small-agents", agents, false},
		{"webfarm-manual-tiered", tiered, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.Overrides = []string{"trace-replay-faults"}
			m.Days = 2
			res, buf, err := RunTracedCampaign("trace-replay", m, fullTrace(2))
			if err != nil {
				t.Fatalf("traced campaign: %v", err)
			}
			tf, err := readTrace(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("parse trace: %v", err)
			}
			if tc.tierScoped && !hasTierScopedArrival(tf) {
				t.Fatal("tiered trace recorded no tier-scoped arrival; the domain draw went untested")
			}
			replayed, err := ReplayTrace(tf, 2)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			want, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayed.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("replay diverged from the recorded campaign:\n%s", firstDiff(want, got))
			}
		})
	}
}

func hasTierScopedArrival(tf *TraceFile) bool {
	for _, tr := range tf.Trials {
		for _, e := range tr.Events {
			if e.Kind == trace.KindArrival && e.Tier != "" {
				return true
			}
		}
	}
	return false
}

// TestCounterfactualTable drives the counterfactual path end to end: pick
// the first recorded diagnose decision, replay it under the default
// alternatives, and check the rendered diff table.
func TestCounterfactualTable(t *testing.T) {
	t.Parallel()
	defer registerFastFaults("trace-cf-faults")()
	m := traceMatrix("small", "agents")
	m.Seeds = campaign.Seeds(7, 1)
	m.Overrides = []string{"trace-cf-faults"}
	m.Days = 2
	_, buf, err := RunTracedCampaign("trace-cf", m, fullTrace(1))
	if err != nil {
		t.Fatalf("traced campaign: %v", err)
	}
	tf, err := readTrace(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	var anchor *trace.Event
	for i, e := range tf.Trials[0].Events {
		if e.Kind == trace.KindDiagnose {
			anchor = &tf.Trials[0].Events[i]
			break
		}
	}
	if anchor == nil {
		t.Fatal("fast-fault trace recorded no diagnose decision to override")
	}
	table, err := CounterfactualTable(tf, fmt.Sprintf("0:%d", anchor.ID), nil, 2)
	if err != nil {
		t.Fatalf("counterfactual: %v", err)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	// Banner, column header, the recorded baseline, then one row per
	// alternative: the default pick must offer at least two.
	if len(lines) < 5 {
		t.Fatalf("table has %d lines, want banner + header + recorded + >= 2 alternatives:\n%s", len(lines), table)
	}
	if !strings.Contains(lines[0], anchor.Rule) || !strings.Contains(lines[0], anchor.Action) {
		t.Errorf("banner does not describe the targeted decision:\n%s", lines[0])
	}
	if !strings.Contains(lines[1], "delta") {
		t.Errorf("header has no delta columns:\n%s", lines[1])
	}
	if !strings.HasPrefix(lines[2], "recorded") {
		t.Errorf("first row is not the recorded baseline:\n%s", lines[2])
	}
	for _, row := range lines[3:] {
		name := strings.Fields(row)[0]
		if name == anchor.Action {
			t.Errorf("default alternatives include the recorded action %q", name)
		}
		if !strings.Contains(row, "+") && !strings.Contains(row, "-") {
			t.Errorf("alternative row carries no delta: %s", row)
		}
	}

	// The no-batch-rescue alternative takes the ablation path instead of
	// a decision override; it must render alongside action overrides.
	table, err = CounterfactualTable(tf, fmt.Sprintf("0:%d", anchor.ID), []string{"no-batch-rescue", "reboot-host"}, 2)
	if err != nil {
		t.Fatalf("counterfactual with explicit alts: %v", err)
	}
	if !strings.Contains(table, "no-batch-rescue") || !strings.Contains(table, "reboot-host") {
		t.Errorf("explicit alternatives missing from table:\n%s", table)
	}
}

// TestReadTraceErrors pins the reader's fail-fast diagnostics.
func TestReadTraceErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "not a qossim trace"},
		{"not-json", "hello\n", "not a qossim trace"},
		{"wrong-header", `{"foo":1}` + "\n", "not a qossim trace"},
		{"future-version", `{"qossim_trace":99,"matrix":{}}` + "\n", "version 99"},
		{"garbage-line", `{"qossim_trace":1,"matrix":{"seeds":[7]}}` + "\n{not json\n", "line 2: malformed"},
		{"event-first", `{"qossim_trace":1,"matrix":{"seeds":[7]}}` + "\n" + `{"id":1,"at":0,"kind":"fault"}` + "\n", "event before any trial"},
		{"no-trials", `{"qossim_trace":1,"matrix":{"seeds":[7]}}` + "\n", "no trials"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readTrace(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("readTrace(%q) error = %v, want substring %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestReplayWrongTopology pins the fingerprint guard: a trace recorded on
// a topology that has since drifted must be refused, not replayed.
func TestReplayWrongTopology(t *testing.T) {
	t.Parallel()
	tf := &TraceFile{
		Level:      1,
		Topologies: map[string]string{"small": "0000000000000000"},
		Trials:     []TraceTrial{{}},
	}
	_, err := ReplayTrace(tf, 1)
	if err == nil || !strings.Contains(err.Error(), "different topology") {
		t.Errorf("ReplayTrace error = %v, want a different-topology refusal", err)
	}
	_, err = CounterfactualTable(tf, "1", nil, 1)
	if err == nil || !strings.Contains(err.Error(), "different topology") {
		t.Errorf("CounterfactualTable error = %v, want a different-topology refusal", err)
	}
}
