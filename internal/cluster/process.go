package cluster

import "fmt"

// ProcState is a Unix-like process state.
type ProcState int

// Process states. Hung processes hold resources but make no progress;
// health probes against them time out, which is how latent errors present.
const (
	ProcRunning ProcState = iota
	ProcSleeping
	ProcHung
	ProcZombie
)

func (s ProcState) String() string {
	switch s {
	case ProcRunning:
		return "R"
	case ProcSleeping:
		return "S"
	case ProcHung:
		return "H"
	case ProcZombie:
		return "Z"
	}
	return "?"
}

// Process is an entry in a host's process table. CPUDemand is the number of
// CPUs' worth of work the process wants (0.5 = half a CPU); what it gets
// depends on host contention.
type Process struct {
	PID       int
	Name      string
	User      string
	CPUDemand float64
	MemMB     float64
	State     ProcState

	// tally is the host's count cell for Name, resolved once at spawn so
	// exit and state changes update the counts without hashing the name.
	tally *ProcTally
}

// ProcTally is one process name's cell in a host's process-count index:
// how many live processes carry the name and how many of those are hung,
// the pgrep -c a health check reads. A cell Host.PinTally returned stays
// in the index at zero, so its holder can keep reading it; other cells
// leave the index when their last process exits.
type ProcTally struct {
	n, hung int32
	pinned  bool
}

// Procs reports how many live processes carry the cell's name.
func (t *ProcTally) Procs() int { return int(t.n) }

// Hung reports how many of those processes are hung.
func (t *ProcTally) Hung() int { return int(t.hung) }

func (p *Process) String() string {
	return fmt.Sprintf("%5d %-8s %-12s %s %4.2fcpu %6.1fMB", p.PID, p.User, p.Name, p.State, p.CPUDemand, p.MemMB)
}

// Active reports whether the process consumes CPU (running, not hung or
// zombie; sleeping processes hold memory only).
func (p *Process) Active() bool { return p.State == ProcRunning }

// HoldsMemory reports whether the process's memory is resident.
func (p *Process) HoldsMemory() bool { return p.State != ProcZombie }
