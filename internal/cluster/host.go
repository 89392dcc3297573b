package cluster

import (
	"fmt"
	"slices"

	"repro/internal/fsim"
	"repro/internal/simclock"
)

// HostState is the coarse availability state of a server.
type HostState int

// Host states.
const (
	HostUp HostState = iota
	HostBooting
	HostDown
	HostHardwareFault // needs physical intervention; reboot does not help
)

func (s HostState) String() string {
	switch s {
	case HostUp:
		return "up"
	case HostBooting:
		return "booting"
	case HostDown:
		return "down"
	case HostHardwareFault:
		return "hwfault"
	}
	return "?"
}

// Role is the host's function in the datacentre (paper §4 breakdown).
type Role string

// Roles at the evaluation site.
const (
	RoleDatabase    Role = "database"
	RoleTransaction Role = "transaction"
	RoleFrontEnd    Role = "frontend"
	RoleAdmin       Role = "admin"
)

// Host is one simulated Unix server.
type Host struct {
	sim   *simclock.Sim
	Name  string
	IP    string
	Model HardwareModel
	OS    string
	Role  Role
	Site  string // site name, e.g. "london-dc1"
	Geo   string // geographical location, e.g. "UK"

	FS *fsim.FS // local filesystem namespace

	state     HostState
	bootedAt  simclock.Time
	procs     map[int]*Process
	nextPID   int
	users     map[string]int // logged-in user -> session count
	extraLoad float64        // ambient CPU demand not tied to a process (interrupts, kernel)

	// Disk activity level 0..1 fed by services; drives iostat numbers.
	diskActivity float64
	// NIC error injection for the network agent to find.
	nicErrors int
	// Sensor faults: degraded hardware components reported by the service
	// processor (ECC errors, failed fans) that a hardware agent can spot
	// before the box dies.
	sensorFaults []string

	// Running demand aggregates, maintained incrementally on spawn, exit,
	// state transitions and demand changes so the hot probe paths
	// (cpuDemand, MemUsedMB — called by every agent run) cost O(1)
	// instead of a process-table walk. Kept in the same per-process
	// rounded integer micro-units the walk summed, so the aggregate is
	// bit-identical to the walk in any mutation order.
	cpuMicro int64 // Σ cpuQuantum over active processes
	memMicro int64 // Σ memQuantum over memory-holding processes

	// tallies is the process-count index: one ProcTally cell per process
	// name, maintained on the same mutation paths as the demand
	// aggregates. Services pin their components' cells (PinTally), so
	// every service health check and probe walk reads counts through a
	// pointer instead of hashing a name or scanning the table. Unpinned
	// cells leave the index at zero and go to tallyFree for reuse: job
	// processes carry unique per-job names, and a year of batch churn
	// must not grow the index.
	tallies   map[string]*ProcTally
	tallyFree []*ProcTally

	// procFree recycles Process objects through the spawn/kill churn of
	// short-lived agent processes. A *Process is therefore valid only
	// while its process lives: a caller that keeps one across simulated
	// events must check it is still the table's entry for its PID
	// (Proc(pid) == p) before using it, as baseline.Monitor does.
	procFree []*Process
}

// NewHost returns a booted host with an empty process table.
func NewHost(sim *simclock.Sim, name, ip string, model HardwareModel, role Role, site, geo string) *Host {
	return &Host{
		sim:   sim,
		Name:  name,
		IP:    ip,
		Model: model,
		OS:    OSForModel(model),
		Role:  role,
		Site:  site,
		Geo:   geo,
		FS:    fsim.NewFS(),
		state: HostUp,
		procs: make(map[int]*Process),
		users: make(map[string]int),
		// PIDs start above the "kernel" range for realism in ps output.
		nextPID: 100,
		tallies: make(map[string]*ProcTally),
	}
}

// State reports the host's availability state.
func (h *Host) State() HostState { return h.state }

// Reset returns the host to the state NewHost leaves it in — up, empty
// process table, no users, no injected faults, fresh PID counter, wiped
// local filesystem — while keeping its allocated maps and FS storage. Site
// reuse calls this between trials.
func (h *Host) Reset() {
	h.state = HostUp
	h.bootedAt = 0
	clear(h.procs)
	h.nextPID = 100
	clear(h.users)
	h.extraLoad = 0
	h.diskActivity = 0
	h.nicErrors = 0
	h.sensorFaults = nil
	h.cpuMicro = 0
	h.memMicro = 0
	h.zeroTallies()
	h.FS.Reset()
}

// cpuQuantum is one process's contribution to the CPU-demand aggregate:
// its demand rounded to integer micro-CPUs, zero unless it is actively
// consuming CPU.
func cpuQuantum(p *Process) int64 {
	if !p.Active() {
		return 0
	}
	return int64(p.CPUDemand*1e6 + 0.5)
}

// memQuantum is the memory counterpart, in micro-MB.
func memQuantum(p *Process) int64 {
	if !p.HoldsMemory() {
		return 0
	}
	return int64(p.MemMB*1e6 + 0.5)
}

// account adds (sign +1) or removes (sign -1) a process from the running
// demand aggregates.
func (h *Host) account(p *Process, sign int64) {
	h.cpuMicro += sign * cpuQuantum(p)
	h.memMicro += sign * memQuantum(p)
}

// PinTally returns the count cell for the process name, creating it if
// the index has none, and pins it: the cell stays in the index when its
// count falls to zero, and Crash and Reset zero it in place, so the
// returned pointer stays this host's cell for the name for good.
// Services pin one cell per component when they bind to the host.
func (h *Host) PinTally(name string) *ProcTally {
	t := h.tally(name)
	t.pinned = true
	return t
}

// tally returns the index's cell for name, adding an empty one (a dropped
// cell when there is one to reuse) if it has none.
func (h *Host) tally(name string) *ProcTally {
	if t := h.tallies[name]; t != nil {
		return t
	}
	var t *ProcTally
	if n := len(h.tallyFree); n > 0 {
		t = h.tallyFree[n-1]
		h.tallyFree = h.tallyFree[:n-1]
	} else {
		t = new(ProcTally)
	}
	h.tallies[name] = t
	return t
}

// dropTally removes an unpinned cell from the index for reuse.
func (h *Host) dropTally(name string, t *ProcTally) {
	delete(h.tallies, name)
	*t = ProcTally{}
	h.tallyFree = append(h.tallyFree, t)
}

// zeroTallies empties the counts once the whole process table is gone:
// pinned cells are zeroed in place and unpinned ones dropped. The map
// order in which dropped cells join the free list is unobservable: they
// are all zero.
func (h *Host) zeroTallies() {
	for name, t := range h.tallies {
		if t.pinned {
			t.n, t.hung = 0, 0
		} else {
			h.dropTally(name, t)
		}
	}
}

// SetProcState transitions a process's scheduling state, keeping the
// demand aggregates consistent. Every state change outside this package
// must go through it (or SetProcDemand) — writing the fields directly
// would desync the aggregates the probes read.
func (h *Host) SetProcState(p *Process, st ProcState) {
	if p == nil || p.State == st {
		return
	}
	if p.State == ProcHung {
		p.tally.hung--
	}
	h.account(p, -1)
	p.State = st
	h.account(p, +1)
	if p.State == ProcHung {
		p.tally.hung++
	}
}

// SetProcDemand updates a process's CPU and memory demand, keeping the
// aggregates consistent.
func (h *Host) SetProcDemand(p *Process, cpuDemand, memMB float64) {
	if p == nil {
		return
	}
	h.account(p, -1)
	p.CPUDemand = cpuDemand
	p.MemMB = memMB
	h.account(p, +1)
}

// Up reports whether the host can run processes and answer probes.
func (h *Host) Up() bool { return h.state == HostUp }

// Crash takes the host down instantly, killing every process. Flag files
// and logs on the local disk survive, as they would on a real machine.
func (h *Host) Crash() {
	if h.state == HostHardwareFault {
		return
	}
	h.state = HostDown
	h.procs = make(map[int]*Process)
	h.users = make(map[string]int)
	h.extraLoad = 0
	h.diskActivity = 0
	h.cpuMicro = 0
	h.memMicro = 0
	h.zeroTallies()
}

// HardwareFail marks the host as needing physical repair.
func (h *Host) HardwareFail() {
	h.Crash()
	h.state = HostHardwareFault
}

// RepairHardware clears a hardware fault, leaving the host down and
// bootable.
func (h *Host) RepairHardware() {
	if h.state == HostHardwareFault {
		h.state = HostDown
	}
}

// Boot starts the host; it becomes usable after bootTime. Booting a host
// that is up or already booting is a no-op. Hosts with hardware faults
// cannot boot.
func (h *Host) Boot(bootTime simclock.Time, onUp func(now simclock.Time)) {
	if h.state != HostDown {
		return
	}
	h.state = HostBooting
	h.sim.PostAfter(bootTime, "host-boot:"+h.Name, func(now simclock.Time) {
		if h.state != HostBooting {
			return
		}
		h.state = HostUp
		h.bootedAt = now
		if onUp != nil {
			onUp(now)
		}
	})
}

// ForceUp brings a down or booting host up immediately — the manual-repair
// path, where the operator's repair delay already covers the boot. Hosts
// with live hardware faults stay down.
func (h *Host) ForceUp(now simclock.Time) {
	if h.state == HostDown || h.state == HostBooting {
		h.state = HostUp
		h.bootedAt = now
	}
}

// Uptime reports time since the last boot (zero when down).
func (h *Host) Uptime() simclock.Time {
	if h.state != HostUp {
		return 0
	}
	return h.sim.Now() - h.bootedAt
}

// Spawn adds a process to the table and returns it. Spawning on a down host
// returns nil.
func (h *Host) Spawn(name, user string, cpuDemand, memMB float64) *Process {
	if h.state != HostUp {
		return nil
	}
	h.nextPID++
	var p *Process
	if n := len(h.procFree); n > 0 {
		p = h.procFree[n-1]
		h.procFree[n-1] = nil
		h.procFree = h.procFree[:n-1]
	} else {
		p = &Process{}
	}
	t := h.tally(name)
	t.n++
	*p = Process{
		PID:       h.nextPID,
		Name:      name,
		User:      user,
		CPUDemand: cpuDemand,
		MemMB:     memMB,
		State:     ProcRunning,
		tally:     t,
	}
	h.procs[p.PID] = p
	h.account(p, +1)
	return p
}

// Kill removes the process with the given PID, reporting whether it
// existed.
func (h *Host) Kill(pid int) bool {
	p, ok := h.procs[pid]
	if !ok {
		return false
	}
	h.account(p, -1)
	t := p.tally
	t.n--
	if p.State == ProcHung {
		t.hung--
	}
	if t.n == 0 && !t.pinned {
		h.dropTally(p.Name, t)
	}
	delete(h.procs, pid)
	h.procFree = append(h.procFree, p)
	return true
}

// Proc returns the process with the given PID, or nil.
func (h *Host) Proc(pid int) *Process { return h.procs[pid] }

// PS returns the process table sorted by PID, like ps -e.
func (h *Host) PS() []*Process {
	out := make([]*Process, 0, len(h.procs))
	for _, p := range h.procs {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b *Process) int { return a.PID - b.PID })
	return out
}

// PGrep returns processes whose Name equals name, like pgrep -x.
func (h *Host) PGrep(name string) []*Process {
	var out []*Process
	for _, p := range h.PS() {
		if p.Name == name {
			out = append(out, p)
		}
	}
	return out
}

// NProcs reports the process count.
func (h *Host) NProcs() int { return len(h.procs) }

// Login registers a user session; Logout removes one.
func (h *Host) Login(user string) {
	if h.state == HostUp {
		h.users[user]++
	}
}

// Logout removes one session for user.
func (h *Host) Logout(user string) {
	if h.users[user] > 1 {
		h.users[user]--
	} else {
		delete(h.users, user)
	}
}

// UsersLoggedIn reports distinct logged-in users.
func (h *Host) UsersLoggedIn() int { return len(h.users) }

// SetAmbientLoad sets kernel/interrupt CPU demand in CPUs-worth units.
func (h *Host) SetAmbientLoad(cpus float64) { h.extraLoad = cpus }

// AddDiskActivity adds to the disk activity level (clamped at 1.5 so
// pathological stacking saturates rather than exploding).
func (h *Host) AddDiskActivity(d float64) {
	h.diskActivity += d
	if h.diskActivity > 1.5 {
		h.diskActivity = 1.5
	}
	if h.diskActivity < 0 {
		h.diskActivity = 0
	}
}

// InjectSensorFault records a degraded hardware component.
func (h *Host) InjectSensorFault(component string) {
	h.sensorFaults = append(h.sensorFaults, component)
}

// SensorFaults reports degraded components.
func (h *Host) SensorFaults() []string { return append([]string(nil), h.sensorFaults...) }

// InjectNICErrors records NIC errors for netstat to report.
func (h *Host) InjectNICErrors(n int) { h.nicErrors += n }

// ClearNICErrors zeroes the NIC error counter (after repair).
func (h *Host) ClearNICErrors() { h.nicErrors = 0 }

// cpuDemand sums active process demand plus ambient load, in CPUs. It
// reads the incrementally maintained aggregate rather than walking the
// process table — the per-probe map walks were the top of the CPU
// profile. The aggregate runs in integer micro-CPUs: integer addition is
// order-independent, so the sum is bit-identical to a table walk in any
// order of spawns, exits and transitions (a float sum would wobble in the
// last ulp with mutation order and leak into probe latencies, breaking
// bit-for-bit replay).
func (h *Host) cpuDemand() float64 {
	return float64(int64(h.extraLoad*1e6+0.5)+h.cpuMicro) * 1e-6
}

// CPUUtilisation reports overall utilisation in [0,1].
func (h *Host) CPUUtilisation() float64 {
	if h.state != HostUp {
		return 0
	}
	u := h.cpuDemand() / float64(h.Model.CPUs)
	if u > 1 {
		u = 1
	}
	return u
}

// RunQueue reports processes waiting for a CPU (demand beyond capacity),
// the paper's "CPU run queue" measurement.
func (h *Host) RunQueue() int {
	excess := h.cpuDemand() - float64(h.Model.CPUs)
	if excess <= 0 {
		return 0
	}
	return int(excess + 0.999)
}

// MemUsedMB sums resident process memory plus a fixed kernel share, read
// from the incrementally maintained aggregate (integer micro-MB, for the
// same order-independence cpuDemand relies on).
func (h *Host) MemUsedMB() float64 {
	if h.state != HostUp {
		return 0
	}
	micro := int64(float64(h.Model.MemoryMB)*0.05*1e6+0.5) + h.memMicro // kernel + buffers
	used := float64(micro) * 1e-6
	if used > float64(h.Model.MemoryMB) {
		used = float64(h.Model.MemoryMB)
	}
	return used
}

// MemFreeMB reports free memory.
func (h *Host) MemFreeMB() float64 { return float64(h.Model.MemoryMB) - h.MemUsedMB() }

func (h *Host) String() string {
	return fmt.Sprintf("%s (%s, %s, %s) %s", h.Name, h.IP, h.Model.Name, h.Role, h.state)
}
