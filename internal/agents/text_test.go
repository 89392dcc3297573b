package agents

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simclock"
)

// The performance agent's measurement lines equal the fmt.Sprintf forms
// they replaced, on values that round half-way at every precision used,
// on infinities, NaN and -0, and on random samples.
func TestPerfLinesMatchSprintf(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -0.5, 0.05, 0.15, 0.25, 0.125,
		0.005, 0.015, 0.045, 99.95, 100, 1e21, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
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
