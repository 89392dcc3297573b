// Package baseline models the commercial monitoring the paper's customer
// ran before the intelliagents: a BMC Patrol / SystemEdge-style agent that
// is memory resident, polls continuously, notifies operator consoles when
// thresholds trip — and repairs nothing ("to our knowledge, there are no
// commercial tools that automatically correct performance problems", §2).
//
// Its purpose in the reproduction is twofold: it is the overhead comparator
// of Figures 3 and 4, and it is the detection front-end of the manual
// operations pipeline in the "before" year.
package baseline

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/notify"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// Footprint parameterises the resident daemon's cost. The defaults
// reproduce the ranges the paper measured on a production server at peak
// times: CPU 0.17–1.1% of the system, memory 32–58 MB, both growing with
// system activity (a busier box means more events, bigger object caches
// and more console traffic for a resident monitor).
type Footprint struct {
	CPUBasePct float64 // CPU % of the whole system at idle
	CPUSlope   float64 // extra CPU % per unit of host utilisation
	MemBaseMB  float64
	MemSlopeMB float64 // extra MB per unit of host utilisation
	NoiseFrac  float64 // multiplicative jitter on each sample
}

// DefaultFootprint returns the Figure 3/4 calibration.
func DefaultFootprint() Footprint {
	return Footprint{
		CPUBasePct: 0.17,
		CPUSlope:   0.95,
		MemBaseMB:  32,
		MemSlopeMB: 26,
		NoiseFrac:  0.12,
	}
}

// Monitor is one host's resident commercial monitoring agent.
type Monitor struct {
	rng  *simclock.Rand
	host *cluster.Host
	fp   Footprint
	bus  *notify.Bus
	cons string // console address for notifications

	proc *cluster.Process
	cron *simclock.CronEntry

	// Alerts counts threshold notifications raised.
	Alerts int
	// lastCPU/lastMem hold the most recent sampled footprint.
	lastCPU float64
	lastMem float64
}

// Install starts the resident daemon on the host and begins polling every
// pollEvery on the cron wheel w (the daemon lives on w's simulator).
// Services, if non-nil, are probed each poll; failed probes raise console
// alerts (detection is then up to the humans watching).
//
// Monitors installed on one wheel at the same instant with the same
// period share one wheel bucket — one pending heap event per poll round,
// however many hosts — and poll in install order. That matches one
// ticker per monitor exactly, because a poll schedules no event of its
// own (see simclock.Wheel for the equivalence condition).
func Install(w *simclock.Wheel, host *cluster.Host, fp Footprint, bus *notify.Bus,
	console string, pollEvery simclock.Time, services *svc.Directory) *Monitor {
	sim := w.Sim()
	m := &Monitor{
		rng: sim.Rand().Fork(0xb3c), host: host, fp: fp,
		bus: bus, cons: console,
	}
	m.spawn()
	m.cron = w.Add(sim.Now()+pollEvery, pollEvery, "bmc-poll:"+host.Name, func(now simclock.Time) {
		m.poll(now, services)
	})
	return m
}

// spawn creates the resident process at the idle footprint.
func (m *Monitor) spawn() {
	if !m.host.Up() {
		return
	}
	m.lastCPU = m.fp.CPUBasePct
	m.lastMem = m.fp.MemBaseMB
	m.proc = m.host.Spawn("bmcpatrol", "root", "/opt/bmc/bin/PatrolAgent",
		m.cpuDemand(m.lastCPU), m.lastMem)
}

// cpuDemand converts a whole-system percentage into CPUs-worth of demand.
func (m *Monitor) cpuDemand(pct float64) float64 {
	return pct / 100 * float64(m.host.Model.CPUs)
}

// poll refreshes the daemon's footprint from current activity and probes
// services. A resident monitor survives service crashes but dies with its
// host; it respawns when polling finds the host back up.
func (m *Monitor) poll(now simclock.Time, services *svc.Directory) {
	if !m.host.Up() {
		m.proc = nil
		return
	}
	if m.proc == nil || m.host.Proc(m.proc.PID) == nil {
		m.spawn()
		if m.proc == nil {
			return
		}
	}
	util := m.host.CPUUtilisation()
	// Subtract our own contribution so the footprint follows the *other*
	// work on the box rather than feeding back on itself.
	own := m.proc.CPUDemand / float64(m.host.Model.CPUs)
	if util > own {
		util -= own
	}
	noise := 1 + m.fp.NoiseFrac*(2*m.rng.Float64()-1)
	m.lastCPU = (m.fp.CPUBasePct + m.fp.CPUSlope*util) * noise
	m.lastMem = (m.fp.MemBaseMB + m.fp.MemSlopeMB*util) * noise
	m.host.SetProcDemand(m.proc, m.cpuDemand(m.lastCPU), m.lastMem)

	if services == nil {
		return
	}
	for _, s := range services.OnHost(m.host.Name) {
		if res := s.Probe(); !res.OK() {
			m.Alerts++
			if m.bus != nil && m.cons != "" {
				m.bus.Send(notify.Email, "bmc@"+m.host.Name, m.cons,
					fmt.Sprintf("ALERT %s on %s", s.Spec.Name, m.host.Name),
					res.Detail, "bmc-alert")
			}
		}
	}
}

// CPUPercent reports the daemon's current whole-system CPU share, the
// quantity Figure 3 plots: zero whenever the daemon is not resident,
// including between its host's crash and the next poll.
func (m *Monitor) CPUPercent() float64 {
	if !m.Resident() {
		return 0
	}
	return m.lastCPU
}

// MemMB reports the daemon's resident memory, the quantity Figure 4
// plots: zero whenever the daemon is not resident.
func (m *Monitor) MemMB() float64 {
	if !m.Resident() {
		return 0
	}
	return m.lastMem
}

// Resident reports whether the daemon process is alive.
func (m *Monitor) Resident() bool {
	return m.proc != nil && m.host.Proc(m.proc.PID) != nil
}

// Stop kills the daemon and its polling (scenario teardown / ablations).
func (m *Monitor) Stop() {
	m.cron.Stop()
	if m.proc != nil {
		m.host.Kill(m.proc.PID)
		m.proc = nil
	}
}
