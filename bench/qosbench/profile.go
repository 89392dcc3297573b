package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// sample is one CPU-profile stack with its weight (profile samples).
// stack runs from the root (goroutine entry) to the leaf (running frame).
type sample struct {
	stack []string
	n     int64
}

// readProfile decodes a gzip-compressed pprof profile as runtime/pprof
// writes it. Only the fields attribution needs are read: samples,
// locations (with their inlined lines), functions and the string table.
func readProfile(path string) ([]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	out, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return out, nil
}

// Field numbers of the pprof protobuf schema (profile.proto).
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

type rawSample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(raw []byte) ([]sample, error) {
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return appendUints(&s.locs, wire, v, b)
				case sampleValue:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 || s.values[0] == 0 {
			continue
		}
		// Locations are leaf first and each location's lines innermost
		// first, so this walk yields the stack leaf to root.
		var leafFirst []string
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				leafFirst = append(leafFirst, name(fid))
			}
		}
		stack := make([]string, len(leafFirst))
		for i, fn := range leafFirst {
			stack[len(leafFirst)-1-i] = fn
		}
		out = append(out, sample{stack: stack, n: s.values[0]})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint/fixed value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layer families. A self sample goes to the package of its innermost
// repro frame; a sub sample goes to the subsystem whose event the
// simulator was dispatching. Packages outside these lists fold into
// "other".
var (
	selfLayers = []string{
		"fsim", "ontology", "cluster", "svc", "agents", "agent", "probe", "simclock",
		"netsim", "adminsrv", "baseline", "workload", "lsf", "faultinject", "operators",
		"diagnose", "heal", "metrics", "notify", "campaign", "qoscluster", "gc", "other",
	}
	subLayers = []string{
		"agent", "probe", "baseline", "workload", "lsf", "faultinject", "operators",
		"adminsrv", "netsim", "notify", "svc", "cluster", "qoscluster", "setup", "gc", "other",
	}
)

// Frames the rules key on.
const (
	fnObserve     = "repro/internal/agent.(*Agent).Observe"
	fnApply       = "repro/internal/agent.(*Agent).Apply"
	fnRun         = "repro/internal/agent.(*Agent).Run"
	fnPoolRun     = "repro/internal/simclock.(*Pool).Run"
	fnPoolWorker  = "repro/internal/simclock.poolWorker"
	fnPrepare     = "repro/internal/simclock.(*bucket).fireSharded.func1"
	fnNewSite     = "repro.NewSite"
	fnSiteReset   = "repro.(*Site).Reset"
	dispatchLayer = "dispatch"
)

// dispatchRoots are the simclock frames that run simulated events: the
// event loop Site.Run drives and the shard-pool workers. A simclock call
// outside them, such as scheduling a ticker while deploying, is not
// dispatch.
var dispatchRoots = map[string]bool{
	"repro/internal/simclock.(*Sim).RunUntil": true,
	fnPoolWorker: true,
}

// attribution is the per-layer split of one CPU profile. Every family
// (self, sub) sums to 1 over its layers; the inclusive shares do not.
type attribution struct {
	total   int64
	self    map[string]float64
	sub     map[string]float64 // includes dispatchLayer
	observe float64            // inclusive (*Agent).Observe
	apply   float64            // inclusive (*Agent).Apply or serial (*Agent).Run
	pool    float64            // under Pool.Run or a pool worker
	prepare float64            // inside a sharded prepare phase
}

// attribute splits samples into layers.
//
//   - self: the package of the innermost repro frame, so runtime helpers
//     count toward their caller. With no repro frame, a GC worker stack
//     goes to "gc" and anything else to "other".
//   - sub: a stack under NewSite or Site.Reset goes to "setup". Otherwise,
//     scanning from the root, the first repro frame that is not simclock
//     below the outermost dispatch root (event loop or pool worker) names
//     the subsystem whose event or prepare phase was running; a stack
//     with only simclock frames there is event dispatch itself. A stack
//     with repro frames but no dispatch root is set-up work too (deploy,
//     reports, aggregation); without repro frames it is a GC worker or
//     other.
func attribute(samples []sample) attribution {
	a := attribution{self: map[string]float64{}, sub: map[string]float64{}}
	var observe, apply, pool, prepare int64
	for _, s := range samples {
		a.total += s.n
		a.self[selfOf(s.stack)] += float64(s.n)
		a.sub[subOf(s.stack)] += float64(s.n)
		if has(s.stack, fnObserve) {
			observe += s.n
		}
		if has(s.stack, fnApply) || has(s.stack, fnRun) {
			apply += s.n
		}
		if has(s.stack, fnPoolRun) || has(s.stack, fnPoolWorker) {
			pool += s.n
		}
		if has(s.stack, fnPrepare) {
			prepare += s.n
		}
	}
	if a.total == 0 {
		return a
	}
	t := float64(a.total)
	for k := range a.self {
		a.self[k] /= t
	}
	for k := range a.sub {
		a.sub[k] /= t
	}
	a.observe, a.apply = float64(observe)/t, float64(apply)/t
	a.pool, a.prepare = float64(pool)/t, float64(prepare)/t
	return a
}

func selfOf(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if layer, ok := reproLayer(stack[i]); ok {
			return known(layer, selfLayers)
		}
	}
	if gcWorker(stack) {
		return "gc"
	}
	return "other"
}

func subOf(stack []string) string {
	if has(stack, fnNewSite) || has(stack, fnSiteReset) {
		return "setup"
	}
	outer := -1
	for i, fn := range stack {
		if dispatchRoots[fn] {
			outer = i
			break
		}
	}
	if outer < 0 {
		for _, fn := range stack {
			if _, ok := reproLayer(fn); ok {
				return "setup"
			}
		}
		if gcWorker(stack) {
			return "gc"
		}
		return "other"
	}
	for _, fn := range stack[outer+1:] {
		layer, ok := reproLayer(fn)
		if !ok || layer == "simclock" {
			continue
		}
		if layer == "agents" {
			layer = "agent" // concrete agents run under the agent lifecycle
		}
		return known(layer, subLayers)
	}
	return dispatchLayer
}

// reproLayer reports the layer name of a frame in this repository's
// module: the last element of its package path, with the module root
// package named qoscluster.
func reproLayer(fn string) (string, bool) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "repro":
		return "qoscluster", true
	case strings.HasPrefix(pkg, "repro/"):
		return pkg[slash+1:], true
	}
	return "", false
}

func known(layer string, list []string) string {
	for _, l := range list {
		if l == layer {
			return layer
		}
	}
	return "other"
}

func gcWorker(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return true
		}
	}
	return false
}

func has(stack []string, fn string) bool {
	for _, f := range stack {
		if f == fn {
			return true
		}
	}
	return false
}
