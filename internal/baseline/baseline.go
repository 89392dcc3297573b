// Package baseline models the commercial monitoring the paper's customer
// ran before the intelliagents: a BMC Patrol / SystemEdge-style agent that
// is memory resident, polls continuously, notifies operator consoles when
// thresholds trip — and repairs nothing ("to our knowledge, there are no
// commercial tools that automatically correct performance problems", §2).
//
// In the reproduction it is the overhead comparator of Figures 3 and 4,
// whose rig polls it to plot the footprint. The model keeps only that
// footprint: no output reads console alerts, so a poll raises none. The
// "before" year installs the resident daemon on every database host and
// never polls it: manual detection is the operator model's
// (operators.Team.PageDelay, drawn when a fault is injected). Install
// spawns the daemon at its idle footprint; StartPolling puts it on a
// ticker, where its footprint follows the host's load until its
// simulation ends.
package baseline

import (
	"repro/internal/cluster"
	"repro/internal/simclock"
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

	// proc is the daemon's process and pid its PID, recorded at spawn.
	// The host recycles a killed process's object for a later spawn, so
	// proc is the daemon only while the table still maps pid to it.
	proc *cluster.Process
	pid  int

	// lastCPU/lastMem hold the most recent sampled footprint.
	lastCPU float64
	lastMem float64
}

// Install starts the resident daemon on the host at its idle footprint.
// It forks the simulator's random stream for the poll noise whether or
// not the monitor ever polls, so a site that installs monitors draws the
// same stream either way. The monitor polls nothing until StartPolling.
func Install(sim *simclock.Sim, host *cluster.Host, fp Footprint) *Monitor {
	m := &Monitor{rng: sim.Rand().Fork(0xb3c), host: host, fp: fp}
	m.spawn()
	return m
}

// StartPolling polls the monitor every pollEvery on a ticker of sim, from
// one period after its current time.
func (m *Monitor) StartPolling(sim *simclock.Sim, pollEvery simclock.Time) {
	sim.Every(sim.Now()+pollEvery, pollEvery, "bmc-poll:"+m.host.Name, m.poll)
}

// spawn creates the resident process at the idle footprint.
func (m *Monitor) spawn() {
	if !m.host.Up() {
		return
	}
	m.lastCPU = m.fp.CPUBasePct
	m.lastMem = m.fp.MemBaseMB
	m.proc = m.host.Spawn("bmcpatrol", "root", m.cpuDemand(m.lastCPU), m.lastMem)
	if m.proc != nil {
		m.pid = m.proc.PID
	}
}

// cpuDemand converts a whole-system percentage into CPUs-worth of demand.
func (m *Monitor) cpuDemand(pct float64) float64 {
	return pct / 100 * float64(m.host.Model.CPUs)
}

// poll refreshes the daemon's footprint from current activity. A resident
// monitor survives service crashes but dies with its host; it respawns
// when polling finds the host back up.
func (m *Monitor) poll(simclock.Time) {
	if !m.host.Up() {
		m.proc = nil
		return
	}
	if !m.Resident() {
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
	return m.proc != nil && m.host.Proc(m.pid) == m.proc
}
