package agents

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simclock"
)

// The performance agent's measurement lines equal the fmt.Sprintf forms
// they replaced, on values that round half-way at every precision used,
// on carries, on negatives that round to zero, around 2^52 and 2^53, on
// subnormals, infinities, NaN and -0, and on random samples.
func TestPerfLinesMatchSprintf(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -0.5, 0.05, 0.15, 0.25, 0.125,
		0.005, 0.015, 0.045, 99.95, 100, 1e21, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		9.95, 9.96, 99.5, 0.995, 0.375, -0.004, -0.04, -0.4, -0.05, 1 << 52, 1<<52 + 1, 1<<53 - 1, 1 << 53,
		1<<53 + 2, 4503599627370495.5, 2.2250738585072009e-308}
	r := rand.New(rand.NewSource(19))
	num := func() float64 {
		if r.Intn(2) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(12)-4))
	}
	integer := func() int { return int(r.Int63()-r.Int63()) >> r.Intn(64) }
	var b []byte
	for range 5000 {
		now := simclock.Time(integer())
		vm := cluster.VMStat{ScanRate: num(), PageOuts: num(), FreeMemMB: num(), RunQueue: integer(),
			CPUIdlePct: num(), BlockedProcs: integer()}
		want := fmt.Sprintf("%d|sr=%.0f|po=%.0f|free=%.0f|runq=%d|idle=%.1f|blocked=%d",
			int64(now), vm.ScanRate, vm.PageOuts, vm.FreeMemMB, vm.RunQueue, vm.CPUIdlePct, vm.BlockedProcs)
		if b = appendOSLine(b[:0], now, vm); string(b) != want {
			t.Fatalf("os line %q, want %q", b, want)
		}
		io := cluster.IOStat{BusyPct: num(), AsvcMS: num(), WsvcMS: num()}
		want = fmt.Sprintf("%d|busy=%.0f|asvc=%.1f|wsvc=%.1f", int64(now), io.BusyPct, io.AsvcMS, io.WsvcMS)
		if b = appendDiskLine(b[:0], now, io); string(b) != want {
			t.Fatalf("disk line %q, want %q", b, want)
		}
		p := &cluster.Process{PID: integer(), User: "analyst|" + fmt.Sprint(r.Intn(9)), Name: "é_job",
			CPUDemand: num(), MemMB: num()}
		want = fmt.Sprintf("%d|pid=%d|user=%s|cmd=%s|cpu=%.2f|mem=%.0f",
			int64(now), p.PID, p.User, p.Name, p.CPUDemand, p.MemMB)
		if b = appendProcLine(b[:0], now, p); string(b) != want {
			t.Fatalf("procs line %q, want %q", b, want)
		}
	}
}

// appendFixed prints what strconv.AppendFloat(b, x, 'f', p, 64) prints, for
// p = 0, 1 and 2, on random bit patterns (over all floats, and over the
// magnitudes below 2^53 that it formats itself), on exact ties at each
// precision and on carries, around and above 2^52 and 2^53, on subnormals,
// ±0, NaN and ±Inf — each value also negated.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	xs := []float64{0, 5e-324, 3 * 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		math.Inf(1), math.NaN(), math.MaxFloat64, 1e21, 1e300,
		9.95, 99.5, 0.995, 9.96, 99.95, 99.995, 9.995, 0.95, 0.095, 0.0095, 999.5, 999.95, 999.995,
		0.004, 0.005, 0.0049999999999999, 0.04, 0.05, 0.4, 0.5, 0.49999999999999994}
	for _, base := range []float64{1 << 52, 1 << 53} {
		for d := -8; d <= 8; d++ {
			xs = append(xs, base+float64(d)/4, base*(1+float64(d)*0x1p-52))
		}
		up, down := base, base
		for range 8 {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			xs = append(xs, up, down)
		}
	}
	// Exact ties: k/2 at p = 0, k/4 at p = 1 and k/8 at p = 2 sit exactly
	// half-way for odd k, small and up to 2^41.
	for k := 1.0; k < 2000; k += 2 {
		xs = append(xs, k/2, k/4, k/8)
	}
	for range 5000 {
		k := float64(2*r.Int63n(1<<40) + 1)
		xs = append(xs, k/2, k/4, k/8)
	}
	for range 2000 {
		xs = append(xs, math.Float64frombits(r.Uint64()))
		xs = append(xs, math.Float64frombits(r.Uint64()&(1<<52-1))) // subnormal
		exp := uint64(r.Intn(1076))                                 // below 2^53
		xs = append(xs, math.Float64frombits(exp<<52|r.Uint64()&(1<<52-1)))
	}
	for range 20000 {
		exp := uint64(1023 - 20 + r.Intn(20+53)) // 2^-20 up to 2^53, where the digits are
		xs = append(xs, math.Float64frombits(exp<<52|r.Uint64()&(1<<52-1)))
		xs = append(xs, r.Float64()*math.Pow(10, float64(r.Intn(10)-3)))
	}
	var got, want []byte
	for _, x := range xs {
		for _, v := range []float64{x, -x} {
			for p := range 3 {
				got = appendFixed(append(got[:0], '|'), v, p)
				want = strconv.AppendFloat(append(want[:0], '|'), v, 'f', p, 64)
				if string(got) != string(want) {
					t.Fatalf("appendFixed(%v [%#016x], %d) = %q, strconv %q", v, math.Float64bits(v), p, got[1:], want[1:])
				}
			}
		}
	}
}

// The status agent's local dlsp.txt holds exactly the lines of the text
// it pushes, run after run.
func TestStatusAgentFileMatchesPush(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	var pushed string
	cfg := r.cfg()
	cfg.Report = func(kind, payload string) {
		if kind == "dlsp" {
			pushed = payload
		}
	}
	a, err := NewStatusAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := range 3 {
		a.Run(r.sim)
		lines, err := r.host.FS.ReadLines(DLSPPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(lines, "\n"); got != pushed || !strings.Contains(got, "svc|ORA-01|") {
			t.Fatalf("run %d: file %q, pushed %q", run, got, pushed)
		}
		if run == 1 {
			s.Crash()
		}
		r.sim.RunUntil(r.sim.Now() + 5*simclock.Minute)
	}
	if !strings.Contains(pushed, "svc|ORA-01|oracle|crashed|") {
		t.Errorf("last push does not show the crash: %q", pushed)
	}
}
