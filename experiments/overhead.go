package experiments

import (
	"fmt"
	"strings"

	"repro/internal/agent"
	"repro/internal/agents"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/notify"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// Paper reference series for Figures 3 and 4 (eight half-hourly samples on
// one production server at peak times).
var (
	PaperFig3BMC   = []float64{0.33, 0.30, 0.50, 0.58, 0.47, 1.10, 0.20, 0.17}
	PaperFig3Agent = []float64{0.045, 0.047, 0.043, 0.045, 0.045, 0.046, 0.046, 0.042}
	PaperFig4BMC   = []float64{32, 46, 45, 37, 50, 58, 38, 51}
	PaperFig4Agent = []float64{1.6, 1.6, 1.6, 1.6, 1.6, 1.6, 1.6, 1.6}
)

// overheadRig is one busy database server carrying both monitoring
// regimes: the resident BMC-style daemon and the full local intelliagent
// complement, so the two footprints are sampled under identical load.
type overheadRig struct {
	sim    *simclock.Sim
	host   *cluster.Host
	bmc    *baseline.Monitor
	agents []*agent.Agent
}

func newOverheadRig(seed uint64) *overheadRig {
	sim := simclock.New(seed)
	r := &overheadRig{sim: sim}
	r.host = cluster.NewHost(sim, "db042", "10.2.0.42", cluster.ModelE4500, cluster.RoleDatabase, "london-dc1", "UK")
	dir := svc.NewDirectory()
	ora, err := svc.New(sim, svc.OracleSpec("ORA-042", 1521), r.host)
	if err != nil {
		panic(err)
	}
	dir.Add(ora)
	lsfd, err := svc.New(sim, svc.LSFSpec("LSF-db042"), r.host)
	if err != nil {
		panic(err)
	}
	dir.Add(lsfd)
	_ = ora.Start(nil)
	_ = lsfd.Start(nil)
	sim.RunUntil(10 * simclock.Minute)

	// Peak-time load: analyst/batch pressure swinging across the trading
	// day the way the paper's Figure 3 samples swing (idle lulls to near
	// saturation).
	rng := sim.Rand().Fork(0x0f17)
	sim.Every(sim.Now(), 10*simclock.Minute, "peak-load", func(simclock.Time) {
		r.host.SetAmbientLoad((0.05 + 0.85*rng.Float64()) * float64(r.host.Model.CPUs))
	})

	bus := notify.NewBus(sim)
	r.bmc = baseline.Install(simclock.NewWheel(sim), r.host, baseline.DefaultFootprint(), bus, "noc", 5*simclock.Minute, dir)

	cfg := func() agent.Config {
		return agent.Config{Host: r.host, Services: dir, Notify: bus}
	}
	add := func(a *agent.Agent, err error) {
		if err != nil {
			panic(err)
		}
		r.agents = append(r.agents, a)
		a.Schedule(sim, rng.UniformDuration(0, 5*simclock.Minute), 5*simclock.Minute)
	}
	add(agents.NewServiceAgent(cfg(), ora))
	add(agents.NewServiceAgent(cfg(), lsfd))
	add(agents.NewStatusAgent(cfg()))
	add(agents.NewPerformanceAgent(cfg(), agents.PerfConfig{}))
	add(agents.NewNetworkAgent(cfg(), nil))
	return r
}

// agentCPUSeconds sums the suite's consumed CPU seconds.
func (r *overheadRig) agentCPUSeconds() float64 {
	var total float64
	for _, a := range r.agents {
		total += a.Counters().CPUSeconds
	}
	return total
}

// agentResidentMB is the intelliagent process footprint while awake — the
// quantity the paper plots as a flat 1.6 MB.
func (r *overheadRig) agentResidentMB() float64 {
	var max float64
	for _, a := range r.agents {
		if m := a.Overhead().MemMB; m > max {
			max = m
		}
	}
	return max
}

// sampleOverhead runs the rig for 4 hours, sampling every 30 minutes the
// way the paper's figures do, and returns the four series.
func sampleOverhead(seed uint64) (bmcCPU, agCPU, bmcMem, agMem *metrics.Series) {
	r := newOverheadRig(seed)
	bmcCPU = &metrics.Series{Name: "bmc-cpu%"}
	agCPU = &metrics.Series{Name: "agent-cpu%"}
	bmcMem = &metrics.Series{Name: "bmc-MB"}
	agMem = &metrics.Series{Name: "agent-MB"}
	window := 30 * simclock.Minute
	// Warm up one window so the first sample has a full delta.
	r.sim.RunUntil(r.sim.Now() + window)
	last := r.agentCPUSeconds()
	for i := 0; i < 8; i++ {
		r.sim.RunUntil(r.sim.Now() + window)
		now := r.sim.Now()
		cur := r.agentCPUSeconds()
		pct := (cur - last) / (float64(window) / float64(simclock.Second)) / float64(r.host.Model.CPUs) * 100
		last = cur
		bmcCPU.Add(now, r.bmc.CPUPercent())
		agCPU.Add(now, pct)
		bmcMem.Add(now, r.bmc.MemMB())
		agMem.Add(now, r.agentResidentMB())
	}
	return
}

func paperSeries(name string, vals []float64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, v := range vals {
		s.Add(simclock.Time(i)*30*simclock.Minute, v)
	}
	return s
}

// Fig3 reproduces the CPU overhead comparison. The rig is one fixed
// host, so cfg.Sites must not name more than one site (and a single
// explicit site must resolve).
func Fig3(cfg Config) (string, error) {
	if err := validateRigSites("fig3", cfg.Sites); err != nil {
		return "", err
	}
	bmcCPU, agCPU, _, _ := sampleOverhead(cfg.Seed)
	var b strings.Builder
	b.WriteString("Figure 3 — monitor CPU utilisation % of system, half-hourly at peak\n")
	b.WriteString(metrics.FormatTable("measured", "%", bmcCPU, agCPU))
	b.WriteString(metrics.FormatTable("paper", "%", paperSeries("bmc-cpu%", PaperFig3BMC), paperSeries("agent-cpu%", PaperFig3Agent)))
	fmt.Fprintf(&b, "overhead ratio bmc/agent: measured %.0fx, paper %.0fx\n",
		bmcCPU.Mean()/agCPU.Mean(), mean(PaperFig3BMC)/mean(PaperFig3Agent))
	return b.String(), nil
}

// Fig4 reproduces the memory overhead comparison (same fixed rig and
// site rule as Fig3).
func Fig4(cfg Config) (string, error) {
	if err := validateRigSites("fig4", cfg.Sites); err != nil {
		return "", err
	}
	_, _, bmcMem, agMem := sampleOverhead(cfg.Seed)
	var b strings.Builder
	b.WriteString("Figure 4 — monitor resident memory (MB), half-hourly at peak\n")
	b.WriteString(metrics.FormatTable("measured", "MB", bmcMem, agMem))
	b.WriteString(metrics.FormatTable("paper", "MB", paperSeries("bmc-MB", PaperFig4BMC), paperSeries("agent-MB", PaperFig4Agent)))
	fmt.Fprintf(&b, "overhead ratio bmc/agent: measured %.0fx, paper %.0fx\n",
		bmcMem.Mean()/agMem.Mean(), mean(PaperFig4BMC)/mean(PaperFig4Agent))
	return b.String(), nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
