// Package svc models the applications the paper's site runs — Oracle and
// Sybase databases, web servers, front-end financial GUIs, LSF daemons and
// market-data feed handlers — as processes on simulated hosts.
//
// Health is determined exactly the way the paper's agents determine it: by
// attempting to use the service (connect and run a basic command such as an
// HTTP get or "select * from tablename") and reading the resulting exit
// code, with per-application connectivity timeouts supplied by the
// application specialists (§3.2, §3.4).
package svc

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/simclock"
)

// Kind is an application type with customised error categories (§3.3).
type Kind string

// Application kinds at the evaluation site.
const (
	KindOracle Kind = "oracle"
	KindSybase Kind = "sybase"
	KindWeb    Kind = "webserver"
	KindFront  Kind = "frontend"
	KindLSF    Kind = "lsf"
	KindFeed   Kind = "feedhandler"
)

// ProbeCommand reports the basic command an agent runs against this kind of
// service to confirm it is usable.
func (k Kind) ProbeCommand() string {
	switch k {
	case KindOracle, KindSybase:
		return "select * from healthcheck"
	case KindWeb:
		return "http get /"
	case KindFront:
		return "gui ping"
	case KindLSF:
		return "lsid"
	case KindFeed:
		return "feed stat"
	}
	return "ping"
}

// State is a service lifecycle state.
type State int

// Service states. Hung services hold their processes but answer nothing —
// the latent-error presentation the paper describes.
const (
	StateStopped State = iota
	StateStarting
	StateRunning
	StateHung
	StateCrashed
	StateDegraded // running but responding slowly
)

func (s State) String() string {
	switch s {
	case StateStopped:
		return "stopped"
	case StateStarting:
		return "starting"
	case StateRunning:
		return "running"
	case StateHung:
		return "hung"
	case StateCrashed:
		return "crashed"
	case StateDegraded:
		return "degraded"
	}
	return "?"
}

// Component is one process the service is made of, started in sequence.
type Component struct {
	ProcName  string
	Count     int
	CPUDemand float64 // per process
	MemMB     float64 // per process
}

// Spec is the static description of a service instance — the information
// the paper's SLKTs record: processes, startup sequence, port, timeouts,
// dependencies.
type Spec struct {
	Name           string // e.g. "ORA-PROD-07"
	Kind           Kind
	Version        string
	Port           int
	User           string
	Components     []Component   // startup sequence order
	DependsOn      []string      // services that must be running first
	ConnectTimeout simclock.Time // provided by application specialists
	BaseLatency    simclock.Time // healthy response time at idle
	StartupTime    simclock.Time
}

// Validate reports configuration errors in the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("svc: spec missing name")
	}
	if len(s.Components) == 0 {
		return fmt.Errorf("svc: %s has no components", s.Name)
	}
	if s.ConnectTimeout <= 0 {
		return fmt.Errorf("svc: %s has no connect timeout", s.Name)
	}
	for _, c := range s.Components {
		if c.Count <= 0 {
			return fmt.Errorf("svc: %s component %s has count %d", s.Name, c.ProcName, c.Count)
		}
	}
	return nil
}

// Service is a live instance of a Spec on a host.
type Service struct {
	Spec Spec
	Host *cluster.Host

	sim   *simclock.Sim
	state State
	pids  []int
	conns int // current client connections
	// tallies holds Host's pinned process-count cell for each spec
	// component, in Spec.Components order: the health checks read the
	// counts the SLKT compares against without a lookup by name.
	tallies []*cluster.ProcTally
	// Wedged marks a corruption the paper's "completely unavailable
	// (corruptions, bugs)" category causes: restarts fail until a human
	// repairs the underlying damage and clears the flag.
	Wedged bool
}

// New binds a spec to a host, pinning the host's process-count cell for
// each component. The service starts stopped.
func New(sim *simclock.Sim, spec Spec, host *cluster.Host) (*Service, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tallies := make([]*cluster.ProcTally, len(spec.Components))
	for i, c := range spec.Components {
		tallies[i] = host.PinTally(c.ProcName)
	}
	return &Service{Spec: spec, Host: host, sim: sim, tallies: tallies}, nil
}

// State reports the lifecycle state, observing host death: a service whose
// host went down is crashed whatever it thought it was.
func (s *Service) State() State {
	if !s.Host.Up() && s.state != StateStopped {
		return StateCrashed
	}
	return s.state
}

// Running reports whether the service is usable (running or degraded).
func (s *Service) Running() bool {
	st := s.State()
	return st == StateRunning || st == StateDegraded
}

// Connections reports current client connections.
func (s *Service) Connections() int { return s.conns }

// Connect registers a client connection; Disconnect removes one.
func (s *Service) Connect() { s.conns++ }

// Disconnect removes a client connection.
func (s *Service) Disconnect() {
	if s.conns > 0 {
		s.conns--
	}
}

// Start launches the startup sequence: components spawn in order, the
// service becomes Running after StartupTime. Starting an already-running or
// starting service is a no-op. Starting on a down host fails.
func (s *Service) Start(onRunning func(now simclock.Time)) error {
	switch s.State() {
	case StateRunning, StateDegraded, StateStarting:
		return nil
	}
	if !s.Host.Up() {
		return fmt.Errorf("svc: %s: host %s is %s", s.Spec.Name, s.Host.Name, s.Host.State())
	}
	if s.Wedged {
		return fmt.Errorf("svc: %s: corrupted, manual repair required", s.Spec.Name)
	}
	s.reapProcs()
	s.state = StateStarting
	s.pids = nil
	// Components spawn immediately (they appear in ps during startup);
	// the service answers probes only once StartupTime elapses.
	for _, c := range s.Spec.Components {
		for i := 0; i < c.Count; i++ {
			p := s.Host.Spawn(c.ProcName, s.Spec.User, c.CPUDemand, c.MemMB)
			if p == nil {
				s.state = StateCrashed
				return fmt.Errorf("svc: %s: spawn failed on %s", s.Spec.Name, s.Host.Name)
			}
			s.pids = append(s.pids, p.PID)
		}
	}
	s.sim.PostAfter(s.Spec.StartupTime, "svc-start:"+s.Spec.Name, func(now simclock.Time) {
		if s.state != StateStarting || !s.Host.Up() {
			return
		}
		s.state = StateRunning
		if onRunning != nil {
			onRunning(now)
		}
	})
	return nil
}

// ForceRunning promotes a Starting service to Running immediately — the
// manual-repair path, where the operator's repair delay already covers the
// startup work. The pending startup event becomes a no-op.
func (s *Service) ForceRunning() {
	if s.state == StateStarting && s.Host.Up() {
		s.state = StateRunning
	}
}

// Stop shuts the service down cleanly (kills processes immediately in the
// simulation).
func (s *Service) Stop() {
	s.reapProcs()
	s.pids = nil
	s.state = StateStopped
	s.conns = 0
}

// Crash kills the service's processes abruptly.
func (s *Service) Crash() {
	s.reapProcs()
	s.pids = nil
	s.state = StateCrashed
	s.conns = 0
}

// Hang leaves processes in the table but stops the service responding.
func (s *Service) Hang() {
	if !s.Running() {
		return
	}
	for _, pid := range s.pids {
		if p := s.Host.Proc(pid); p != nil {
			s.Host.SetProcState(p, cluster.ProcHung)
		}
	}
	s.state = StateHung
}

// Degrade marks the service slow (e.g. under an overload or after an
// internal leak); probes still succeed unless latency exceeds the timeout.
func (s *Service) Degrade() {
	if s.State() == StateRunning {
		s.state = StateDegraded
	}
}

// Recover clears degradation.
func (s *Service) Recover() {
	if s.state == StateDegraded {
		s.state = StateRunning
	}
}

// KillComponent kills n processes of the named component, simulating a
// partial failure (some application components stop working, §4).
func (s *Service) KillComponent(procName string, n int) int {
	killed := 0
	var remaining []int
	for _, pid := range s.pids {
		p := s.Host.Proc(pid)
		if p != nil && p.Name == procName && killed < n {
			s.Host.Kill(pid)
			killed++
			continue
		}
		remaining = append(remaining, pid)
	}
	s.pids = remaining
	if killed > 0 && s.Running() {
		s.state = StateDegraded
	}
	return killed
}

// reapProcs removes any of the service's processes still in the host table.
func (s *Service) reapProcs() {
	for _, pid := range s.pids {
		s.Host.Kill(pid)
	}
}

// MissingProcs compares the live process table against the spec and returns
// component names with fewer processes than expected — what a service
// intelliagent checks against the SLKT.
func (s *Service) MissingProcs() []string {
	var missing []string
	for i, c := range s.Spec.Components {
		if s.tallies[i].Procs() < c.Count {
			missing = append(missing, c.ProcName)
		}
	}
	return missing
}

// AllProcsPresent reports whether every component has its expected process
// count — the allocation-free check probes use before the more detailed
// MissingProcs.
func (s *Service) AllProcsPresent() bool {
	for i, c := range s.Spec.Components {
		if s.tallies[i].Procs() < c.Count {
			return false
		}
	}
	return true
}

// ProcCounts sums the live and hung processes carrying the components'
// names on the host, one term per component, as pgrep -c would count them.
func (s *Service) ProcCounts() (present, hung int) {
	for _, t := range s.tallies {
		present += t.Procs()
		hung += t.Hung()
	}
	return present, hung
}

// Reset returns the service to the state New leaves it in — stopped, no
// processes, corruption cleared. Site reuse calls this between trials;
// the host's process table is reset separately.
func (s *Service) Reset() {
	s.state = StateStopped
	s.pids = nil
	s.conns = 0
	s.Wedged = false
}
