package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	qoscluster "repro"
	"repro/experiments"
)

// refSeconds is the run budget the workload sizes below are set for: on
// a 2-core Xeon with Go 1.24.0 each timed phase takes about this long.
// The -seconds flag scales every size linearly, so the amount of
// simulated work is a function of the flag alone and is the same on
// every commit and every machine.
const refSeconds = 12

// workload is one benchmark input: a site run or a campaign.
type workload struct {
	name string

	site   string // registered topology name
	mode   qoscluster.Mode
	slots  int // agent cron slots (0: per-agent phases)
	shards int // intra-trial shards (0: serial)

	// setupReps is how many set-ups the workload times before its timed
	// phase; setup_s is their median. A site workload runs on the last
	// one's site. A long set-up, about a second, spans many of the host's
	// short slow spells: it is divided by the step probes around it, like
	// a step, rather than by the set-up probe before it.
	setupReps int
	longSetup bool

	// Site workloads run hours 1-sim-hour Run chunks, then check the
	// run's report digest at verifyHours against a reference run: the
	// same site Reset to the seed (verifyReset) or a fresh serial site
	// (verifySerial).
	hours       int
	verify      string
	verifyHours int

	// The campaign workload runs CampaignMatrix("before") over cells ×
	// seedsPerCell one-year trials on workers goroutines, in waves of one
	// trial per worker.
	campaign     bool
	days         int
	cells        []string
	seedsPerCell int
	workers      int
}

const (
	verifyReset  = "reset"
	verifySerial = "serial"
)

// workloads are the benchmark's inputs; README.md records why each was
// chosen. At most two simulation goroutines run at a time in every one.
var workloads = []workload{
	{
		// The agents year: agent, fsim and ontology layers, serial.
		name: "paper-agents",
		site: "paper", mode: qoscluster.ModeAgents, setupReps: 21,
		hours: 7 * 24, verify: verifyReset, verifyHours: 24,
	},
	{
		// The other agent dispatch path: prepared batches on the pool.
		name: "paper-agents-slots",
		site: "paper", mode: qoscluster.ModeAgents, slots: 8, shards: 2, setupReps: 21,
		hours: 5 * 24, verify: verifySerial, verifyHours: 24,
	},
	{
		// Probe walks on the pool, and a 100k-host set-up, which lasts
		// about a second.
		name: "megasite-100k",
		site: "megasite-100000", mode: qoscluster.ModeManual, shards: 2, setupReps: 5, longSetup: true,
		hours: 6 * 24, verify: verifySerial, verifyHours: 6,
	},
	{
		// The manual year: BMC ticks, heap dispatch, pooled Reset reuse.
		name: "paper-manual-campaign",
		site: "paper", mode: qoscluster.ModeManual, setupReps: 21,
		campaign: true, days: 365, cells: []string{"", "flashcrowd"}, seedsPerCell: 4, workers: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sized scales the workload's simulated work to a run budget.
func (w workload) sized(seconds int) workload {
	scale := float64(seconds) / refSeconds
	grow := func(n int) int { return max(1, int(math.Round(float64(n)*scale))) }
	if w.campaign {
		w.seedsPerCell = grow(w.seedsPerCell)
	} else {
		w.hours = grow(w.hours)
		w.verifyHours = min(w.verifyHours, w.hours)
	}
	return w
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: its operations, its metrics, and what the
// verifier found. An operation is one Run chunk, one trial or one
// verification check; planned operations that never ran count as failed,
// so a run that aborts early never looks better.
type result struct {
	workload  string
	planned   int
	attempted int
	failed    int
	failures  []string
	e2e       map[string]metric
	samples   map[string]int // sample count behind each end-to-end metric
	layer     map[string]metric
	raw       map[string]float64 // end-to-end metrics before host normalization
	// hostFactor is the median factor the steps were divided by.
	hostFactor float64
	digest     uint64 // whole-run FNV-64a digest, for information only
	calib      [2]float64
}

func newResult(name string) *result {
	return &result{workload: name, e2e: map[string]metric{}, samples: map[string]int{},
		layer: map[string]metric{}, raw: map[string]float64{}}
}

// op records one executed operation and reports whether it succeeded.
func (r *result) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
	return err == nil
}

// check records one verification check.
func (r *result) check(what string, ok bool, detail string) {
	var err error
	if !ok {
		err = errors.New(detail)
	}
	r.op("verify "+what, err)
}

// finish counts every planned operation that never ran as failed.
func (r *result) finish() {
	if r.attempted < r.planned {
		missed := r.planned - r.attempted
		r.failed += missed
		r.failures = append(r.failures, fmt.Sprintf("%d planned operations never ran", missed))
		r.attempted = r.planned
	}
}

func (r *result) setE2E(name, unit string, v float64, n int) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *result) setRaw(name string, v float64) { r.raw[name] = v }

func (r *result) setLayer(name, unit string, v float64) {
	r.layer[name] = metric{Value: v, Unit: unit}
}

// bench runs one workload.
type bench struct {
	w        workload
	seed     uint64
	traceDir string // "" when untraced
	topo     qoscluster.Topology
	cfg      experiments.Config // the campaign's configuration
	r        *result
	sp       *spans
	st       setupTimes
}

func runWorkload(w workload, seed uint64, traceDir string) *result {
	b := &bench{w: w, seed: seed, traceDir: traceDir, r: newResult(w.name), sp: newSpans()}
	b.r.calib[0] = calibrate()
	start := time.Now()
	topo, ok := qoscluster.ResolveTopology(w.site)
	b.topo = topo
	switch {
	case !ok:
		b.r.failures = append(b.r.failures, "unknown site "+w.site)
	case w.campaign:
		b.runCampaign()
	default:
		b.runSite()
	}
	b.sp.add("workload "+w.name, 0, start, time.Now(), map[string]any{"seed": seed})
	b.r.finish()
	b.r.calib[1] = calibrate()
	if traceDir != "" {
		path := filepath.Join(traceDir, w.name+".trace.json")
		if err := b.sp.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: writing %s: %v\n", path, err)
		}
	}
	return b.r
}

func (b *bench) newSite(shards int) (*qoscluster.Site, error) {
	return qoscluster.NewSite(b.topo, qoscluster.WithSeed(b.seed), qoscluster.WithMode(b.w.mode),
		qoscluster.WithAgentSlots(b.w.slots), qoscluster.WithShards(shards))
}

// setupTimes holds each set-up's phases in host-normalized seconds, and
// the raw totals.
type setupTimes struct{ matrix, build, deploy, total, raw []float64 }

// setups times the workload's set-ups one after another, before its
// timed phase and outside its heap watch, and returns the last one's
// deployed site.
func (b *bench) setups() (*qoscluster.Site, error) {
	var site *qoscluster.Site
	for i := 0; i < b.w.setupReps; i++ {
		site = nil // let the previous set-up's site go before the next
		s, err := b.setupRep()
		if err != nil {
			return nil, err
		}
		site = s
	}
	return site, nil
}

// setupRep times one set-up after a host probe: for the campaign
// the matrix first, then NewSite and the deploy (a first Run to 1 ns,
// which deploys without advancing the clock). It returns the deployed
// site. It starts from a collected and swept heap and keeps the
// collector off, so its time does not depend on where the collector's
// pacing falls in it; the GC cost of what a set-up builds shows in the
// timed phase, whose cycles trace it.
func (b *bench) setupRep() (*qoscluster.Site, error) {
	runtime.GC()
	restore := quiesce()
	defer restore()
	var p0 float64
	if b.w.longSetup {
		p0 = probe()
	} else {
		p0 = setupProbe()
	}
	t0 := time.Now()
	var err error
	if b.w.campaign {
		_, err = experiments.CampaignMatrix("before", b.cfg, b.w.seedsPerCell)
	}
	t1 := time.Now()
	var site *qoscluster.Site
	if err == nil {
		site, err = b.newSite(b.w.shards)
	}
	t2 := time.Now()
	if err == nil {
		err = site.Run(1)
	}
	t3 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	f := p0 / setupProbeRefSeconds
	if b.w.longSetup {
		f = hostFactor(p0, probe())
	}
	b.sp.add("setup", 0, t0, t3, map[string]any{"host_factor": f})
	b.sp.add("build", 0, t1, t2, nil)
	b.sp.add("deploy", 0, t2, t3, nil)
	s := &b.st
	s.matrix = append(s.matrix, t1.Sub(t0).Seconds()/f)
	s.build = append(s.build, t2.Sub(t1).Seconds()/f)
	s.deploy = append(s.deploy, t3.Sub(t2).Seconds()/f)
	s.total = append(s.total, t3.Sub(t0).Seconds()/f)
	s.raw = append(s.raw, t3.Sub(t0).Seconds())
	return site, nil
}

// setupE2E reports setup_s from the set-ups taken so far.
func (b *bench) setupE2E() {
	b.r.setE2E("setup_s", "s", median(b.st.total), len(b.st.total))
	b.r.setRaw("setup_s", median(b.st.raw))
}

// window is what one timed phase measured of the process around it.
type window struct {
	before, after usage
	simDays       float64
	wall          time.Duration // host-normalized timed phase: Run chunks, or campaign wall
	rawWall       time.Duration // the same, as the wall clock read it
	factors       []float64     // host factors the steps were divided by
	peakMB        float64       // largest live heap any GC cycle found
}

func (w window) simDaysPerS() float64 { return ratio(w.simDays, w.wall.Seconds()) }

func digestOf(v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// verifyDigest records whether a reference run reproduced the digest the
// timed run reached.
func verifyDigest(r *result, what string, want, got uint64, err error) {
	switch {
	case err != nil:
		r.check(what, false, err.Error())
	default:
		r.check(what, want == got, fmt.Sprintf("digest %016x, want %016x", got, want))
	}
}

// sane reports an error unless every number in v's JSON form is finite
// and non-negative (encoding/json refuses NaN and infinities).
func sane(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var tree any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&tree); err != nil {
		return err
	}
	var walk func(path string, v any) error
	walk = func(path string, v any) error {
		switch x := v.(type) {
		case json.Number:
			if f, err := x.Float64(); err != nil || f < 0 {
				return fmt.Errorf("%s = %s", path, x)
			}
		case map[string]any:
			for k, e := range x {
				if err := walk(path+"."+k, e); err != nil {
					return err
				}
			}
		case []any:
			for i, e := range x {
				if err := walk(fmt.Sprintf("%s[%d]", path, i), e); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk("", tree)
}
