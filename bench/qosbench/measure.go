package main

import (
	"container/heap"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the whole process
	gcCPU   float64       // runtime estimate of GC CPU-seconds
	busyCPU float64       // runtime estimate of non-idle CPU-seconds
	allocs  uint64        // cumulative heap bytes allocated
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		allocs:  s[3].Value.Uint64(),
	}
}

// cpuUtil is process CPU over the wall time of [a, b] times GOMAXPROCS.
func cpuUtil(a, b usage) float64 {
	wall := b.wall.Sub(a.wall).Seconds() * float64(runtime.GOMAXPROCS(0))
	return ratio((b.cpu - a.cpu).Seconds(), wall)
}

// gcFrac is the GC share of the CPU the runtime spent busy in [a, b].
func gcFrac(a, b usage) float64 {
	return ratio(b.gcCPU-a.gcCPU, b.busyCPU-a.busyCPU)
}

// liveHeapMB reads the heap the last GC found live.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakHeap tracks the largest live heap any GC cycle found while it
// watches. Sampling every cycle, not only between steps, matters for
// the campaign: a pooled site skeleton stays reachable for one cycle
// after its cell ends, and whether a between-trials reading catches that
// cycle is a race.
type peakHeap struct {
	mu       sync.Mutex
	max      float64
	watching bool
}

// gcSentinel carries a pointer so the allocator never packs it into a
// shared tiny block, which could delay its finalizer indefinitely.
type gcSentinel struct {
	_ *byte
	_ [16]byte
}

// watch samples the live heap after every GC cycle until stop: a
// finalizer on an unreachable sentinel runs once per cycle and re-arms
// itself on a new sentinel.
func (p *peakHeap) watch() {
	p.mu.Lock()
	p.watching = true
	p.mu.Unlock()
	p.arm()
}

func (p *peakHeap) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		p.mu.Lock()
		on := p.watching
		if on {
			p.max = math.Max(p.max, liveHeapMB())
		}
		p.mu.Unlock()
		if on {
			p.arm()
		}
	})
}

// stop ends the watch and returns the peak in MB.
func (p *peakHeap) stop() float64 {
	mb := liveHeapMB()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.watching = false
	p.max = math.Max(p.max, mb)
	return p.max
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile interpolates the p-th quantile (0 < p < 1) at rank p·(n+1),
// clamped to the sample range.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)+1)
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(len(s)):
		return s[len(s)-1]
	}
	lo := int(h)
	return s[lo-1] + (h-float64(lo))*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// the spread rule the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// The host the benchmark was built on (2 shared vCPUs) slows down by up
// to 2x for minutes at a time, and CPU time grows with wall time when it
// does, so no clock inside the process can tell a slow host from slow
// code. The benchmark therefore times a fixed probe kernel right before
// and after every step and reports each step's time divided by the
// probes' mean relative to probeRefSeconds: host-normalized time, in
// seconds of the reference host.
//
// The probe must measure the host and nothing the workload does, so it
// runs alone in the process: no step is in flight (campaign trials wait
// at a barrier for it), and a GC cycle the step left marking is waited
// out first, on the step's clock. The probe neither allocates nor holds
// pointers, so it starts no cycle of its own. Its table fits in L2 and
// is warmed before the timed loop, so how much cache the previous step
// evicted does not show in the probe either.
const probeRefSeconds = 0.0015 // the probe kernel on a quiet 2-core Xeon at 2.0 GHz, Go 1.24.0

var probeTable [1 << 16]uint32 // 256 KB

// quiesce returns once no GC cycle is marking, and keeps a new one from
// starting until restore is called.
func quiesce() (restore func()) {
	gcPercent := debug.SetGCPercent(-1) // waits for a running mark to end
	return func() { debug.SetGCPercent(gcPercent) }
}

// probe times the fixed kernel three times and returns the median, in
// seconds. The caller quiesces the process first.
func probe() float64 {
	runs := []float64{probeKernel(), probeKernel(), probeKernel()}
	return median(runs)
}

// probeKernel runs random read-modify-writes in probeTable and returns
// their wall time in seconds.
func probeKernel() float64 {
	var warm uint32
	for i := 0; i < len(probeTable); i += 16 { // one read per cache line
		warm += probeTable[i]
	}
	probeTable[0] += warm & 1
	start := time.Now()
	x := uint64(88172645463325252)
	var acc uint32
	const mask = len(probeTable) - 1
	for i := 0; i < 500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x) & mask
		acc += probeTable[j] + uint32(x>>40)
		probeTable[(j*7+1)&mask] = acc
	}
	return time.Since(start).Seconds()
}

// Short set-ups are normalized by a probe of their own (a long one is
// timed between step probes, see workload.longSetup). A paper set-up lasts
// about 3 ms, and the host's slow spells slow it by up to 70 % where the
// step probe slows by 20 %: a set-up is allocation and map work, which
// those spells hurt most. setupProbe does the same kind of work, once,
// right before the set-up. It may allocate because it starts from a
// collected and swept heap with the collector off, so it pays no GC or
// sweep debt a step left behind, and it reuses memory the collection
// freed. A second run, or one after the set-up, would allocate fresh
// memory instead, on a heap the set-up grew (by 390 MB on
// megasite-100k), and read slower the more the set-up allocated.
const setupProbeRefSeconds = 0.0023 // setupProbe on a quiet 2-core Xeon at 2.0 GHz, Go 1.24.0

// setupProbe makes 20 000 small allocations and map updates and returns
// their wall time in seconds.
func setupProbe() float64 {
	start := time.Now()
	m := make(map[uint64]int)
	var keep [][]byte
	x := uint64(88172645463325252)
	for i := 0; i < 20_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%50_000] += i
		keep = append(keep, make([]byte, 16+x%112))
	}
	probeSink = len(m) + len(keep)
	return time.Since(start).Seconds()
}

var probeSink int

// hostFactor is how much slower than the reference host the host ran
// between two probes.
func hostFactor(before, after float64) float64 {
	return (before + after) / 2 / probeRefSeconds
}

// stepTimer normalizes a sequence of back-to-back steps, sharing each
// probe between the step before it and the step after it. The caller
// must leave no step in flight while it probes.
type stepTimer struct{ last float64 }

func newStepTimer() *stepTimer {
	restore := quiesce()
	defer restore()
	return &stepTimer{last: probe()}
}

// step is one timed step. Its raw time runs until the GC cycle it left
// marking has ended, so a change that allocates more pays for its GC
// work here rather than pushing it into the probe.
type step struct {
	end       time.Time
	raw, norm time.Duration // wall clock, and host-normalized
	factor    float64
}

// done ends a step begun at start and probes the host.
func (s *stepTimer) done(start time.Time) step {
	restore := quiesce()
	defer restore()
	end := time.Now()
	p := probe()
	f := hostFactor(s.last, p)
	s.last = p
	raw := end.Sub(start)
	return step{end: end, raw: raw, norm: time.Duration(float64(raw) / f), factor: f}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// calibrate runs a fixed CPU and allocation kernel (heap, map and
// allocation mix) and returns its wall time in seconds: a drift sentinel
// for the host, printed beside every run and never gated.
func calibrate() float64 {
	start := time.Now()
	h := &intHeap{}
	m := make(map[uint64]int, 1<<14)
	keep := make([][]byte, 256)
	x := uint64(88172645463325252)
	for i := 0; i < 1_700_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(h, int(x%1_000_000))
		if h.Len() > 4096 {
			heap.Pop(h)
		}
		m[x%(1<<14)] += i
		if i%4 == 0 {
			keep[i%256] = make([]byte, 64+x%192)
		}
	}
	probeSink = len(m) + h.Len() + len(keep[0])
	return time.Since(start).Seconds()
}

type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// spans keeps the harness's own spans in memory; writeChrome saves them
// as Chrome trace-event JSON, which Perfetto and chrome://tracing open.
// Nesting is by time on a lane: workload → setup{build, deploy} → run →
// simhour[i] or trial[i] → verify. Concurrent campaign trials take one
// lane each. Safe for concurrent use.
type spans struct {
	mu     sync.Mutex
	origin time.Time
	list   []span
	lanes  []bool // campaign lanes in use
}

type span struct {
	name       string
	lane       int
	start, end time.Time
	args       map[string]any
}

func newSpans() *spans { return &spans{origin: time.Now()} }

func (s *spans) add(name string, lane int, start, end time.Time, args map[string]any) {
	s.mu.Lock()
	s.list = append(s.list, span{name: name, lane: lane, start: start, end: end, args: args})
	s.mu.Unlock()
}

// acquireLane returns the lowest free lane above 0 (lane 0 is the
// harness's own).
func (s *spans) acquireLane() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, busy := range s.lanes {
		if !busy {
			s.lanes[i] = true
			return i + 1
		}
	}
	s.lanes = append(s.lanes, true)
	return len(s.lanes)
}

func (s *spans) releaseLane(lane int) {
	s.mu.Lock()
	s.lanes[lane-1] = false
	s.mu.Unlock()
}

func (s *spans) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	s.mu.Lock()
	events := make([]event, 0, len(s.list))
	for _, sp := range s.list {
		events = append(events, event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.lane, Args: sp.args,
			Ts:  float64(sp.start.Sub(s.origin).Nanoseconds()) / 1e3,
			Dur: float64(sp.end.Sub(sp.start).Nanoseconds()) / 1e3,
		})
	}
	s.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
