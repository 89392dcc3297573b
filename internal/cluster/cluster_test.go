package cluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func newHost(sim *simclock.Sim) *Host {
	return NewHost(sim, "db001", "10.0.0.1", ModelE4500, RoleDatabase, "london-dc1", "UK")
}

func TestModelPowerOrdering(t *testing.T) {
	if ModelE10K.Power() <= ModelE4500.Power() {
		t.Error("E10K should outrank E4500")
	}
	if ModelE4500.Power() <= ModelUltra10.Power() {
		t.Error("E4500 should outrank Ultra10")
	}
	for i := 1; i < len(Models); i++ {
		if Models[i-1].Power() < Models[i].Power() {
			t.Errorf("Models not sorted by power at %d: %s < %s", i, Models[i-1].Name, Models[i].Name)
		}
	}
}

func TestModelByName(t *testing.T) {
	m, ok := ModelByName("E10K")
	if !ok || m.CPUs != 32 {
		t.Errorf("ModelByName(E10K) = %v %v", m, ok)
	}
	if _, ok := ModelByName("VAX"); ok {
		t.Error("unknown model should not resolve")
	}
}

func TestOSForModel(t *testing.T) {
	cases := map[string]string{"E10K": "Solaris8", "HP-K": "HP-UX11", "SP2": "AIX4", "linux-x86": "Linux2.4"}
	for name, wantOS := range cases {
		m, _ := ModelByName(name)
		if got := OSForModel(m); got != wantOS {
			t.Errorf("OSForModel(%s) = %s, want %s", name, got, wantOS)
		}
	}
}

func TestSpawnKill(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	p := h.Spawn("oracle", "dba", 0.5, 512)
	if p == nil || p.PID < 100 {
		t.Fatalf("spawn: %v", p)
	}
	if h.NProcs() != 1 {
		t.Errorf("NProcs = %d", h.NProcs())
	}
	if got := h.PGrep("oracle"); len(got) != 1 || got[0].PID != p.PID {
		t.Errorf("PGrep = %v", got)
	}
	if !h.Kill(p.PID) {
		t.Error("kill should succeed")
	}
	if h.Kill(p.PID) {
		t.Error("double kill should fail")
	}
}

func TestPIDsUnique(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		p := h.Spawn("x", "u", 0, 1)
		if seen[p.PID] {
			t.Fatalf("duplicate PID %d", p.PID)
		}
		seen[p.PID] = true
	}
}

// TestProcIndexMatchesScan drives hosts through seeded random sequences
// of spawns (pinned, repeated and unique job names), kills, running↔hung
// transitions, demand changes, crashes, hardware faults and repairs,
// boots, resets, and leaving and rejoining a datacentre. After every step
// the process-count index and the demand sums must agree with a scan of
// PS(): each pinned cell is still the index's cell for its name and
// holds the scanned counts, every live process points at its name's
// cell, no unpinned name without processes stays indexed, and the CPU
// and memory sums equal Σ cpuQuantum and Σ memQuantum over the scan.
func TestProcIndexMatchesScan(t *testing.T) {
	pinnable := []string{"ora_pmon", "ora_dbwr", "httpd", "lim"}
	repeated := []string{"sshd", "iagent_status", "hog_simulation"}
	for seed := uint64(1); seed <= 20; seed++ {
		sim := simclock.New(seed)
		rng := sim.Rand()
		h := newHost(sim)
		dc := NewDatacentre()
		dc.Add(h)
		pinned := map[string]*ProcTally{}
		for _, name := range pinnable[:2] {
			pinned[name] = h.PinTally(name)
		}
		jobs := 0
		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Intn(115); {
			case r < 20:
				op = "spawn pinned"
				h.Spawn(pinnable[rng.Intn(len(pinnable))], "u", 0.1, 8)
			case r < 30:
				op = "spawn repeated"
				h.Spawn(repeated[rng.Intn(len(repeated))], "u", 0.1, 8)
			case r < 40:
				op = "spawn job"
				jobs++
				h.Spawn(fmt.Sprintf("lsf_job_%d", jobs), "u", 0.5, 64)
			case r < 43:
				// Pinning late, possibly a name with live processes.
				op = "pin"
				name := pinnable[rng.Intn(len(pinnable))]
				pinned[name] = h.PinTally(name)
			case r < 63:
				op = "kill"
				if ps := h.PS(); len(ps) > 0 {
					h.Kill(ps[rng.Intn(len(ps))].PID)
				}
			case r < 83:
				op = "set state"
				if ps := h.PS(); len(ps) > 0 {
					p := ps[rng.Intn(len(ps))]
					st := ProcHung
					if p.State == ProcHung {
						st = ProcRunning
					}
					h.SetProcState(p, st)
				}
			case r < 87:
				op = "crash"
				h.Crash()
			case r < 89:
				op = "hardware fail"
				h.HardwareFail()
			case r < 91:
				op = "repair hardware"
				h.RepairHardware()
			case r < 98:
				op = "boot"
				h.Boot(simclock.Minute, nil)
				sim.RunUntil(sim.Now() + 2*simclock.Minute)
			case r < 100:
				op = "reset"
				h.Reset()
			case r < 112:
				op = "set demand"
				if ps := h.PS(); len(ps) > 0 {
					h.SetProcDemand(ps[rng.Intn(len(ps))], 2*rng.Float64(), 256*rng.Float64())
				}
			default:
				op = "rejoin datacentre"
				dc.Remove(h.Name)
				dc.Add(h)
			}
			if err := checkProcIndex(h, pinned); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
		}
	}
}

// checkProcIndex compares h's process-count index and demand sums with
// a scan of PS().
func checkProcIndex(h *Host, pinned map[string]*ProcTally) error {
	n, hung := map[string]int{}, map[string]int{}
	var cpu, mem int64
	for _, p := range h.PS() {
		n[p.Name]++
		if p.State == ProcHung {
			hung[p.Name]++
		}
		cpu += cpuQuantum(p)
		mem += memQuantum(p)
		if p.tally != h.tallies[p.Name] {
			return fmt.Errorf("pid %d (%s) does not point at its name's cell", p.PID, p.Name)
		}
	}
	for name, cell := range pinned {
		if h.tallies[name] != cell {
			return fmt.Errorf("pinned cell for %s left the index", name)
		}
	}
	for name, cell := range h.tallies {
		if cell.Procs() != n[name] || cell.Hung() != hung[name] {
			return fmt.Errorf("%s: cell %d procs %d hung, scan %d procs %d hung",
				name, cell.Procs(), cell.Hung(), n[name], hung[name])
		}
		if cell.Procs() == 0 && pinned[name] == nil {
			return fmt.Errorf("unpinned %s indexed with no processes", name)
		}
	}
	for name := range n {
		if h.tallies[name] == nil {
			return fmt.Errorf("live name %s missing from the index", name)
		}
	}
	if h.cpuMicro != cpu || h.memMicro != mem {
		return fmt.Errorf("demand sums %d µCPU %d µMB, scan %d µCPU %d µMB", h.cpuMicro, h.memMicro, cpu, mem)
	}
	return nil
}

func TestCrashKillsProcesses(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	h.Spawn("oracle", "dba", 0.5, 512)
	h.Login("analyst1")
	h.Crash()
	if h.Up() || h.NProcs() != 0 || h.UsersLoggedIn() != 0 {
		t.Errorf("crash state: up=%v procs=%d users=%d", h.Up(), h.NProcs(), h.UsersLoggedIn())
	}
	if h.Spawn("x", "u", 0, 1) != nil {
		t.Error("spawn on down host should fail")
	}
}

func TestBoot(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	h.Crash()
	var upAt simclock.Time
	h.Boot(10*simclock.Minute, func(now simclock.Time) { upAt = now })
	if h.State() != HostBooting {
		t.Errorf("state = %v", h.State())
	}
	sim.RunUntil(simclock.Hour)
	if !h.Up() || upAt != 10*simclock.Minute {
		t.Errorf("up=%v upAt=%v", h.Up(), upAt)
	}
	if h.Uptime() != simclock.Hour-10*simclock.Minute {
		t.Errorf("uptime = %v", h.Uptime())
	}
}

func TestBootWhileUpIsNoop(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	h.Boot(time10, func(simclock.Time) { t.Error("onUp must not fire for a host that was already up") })
	sim.RunUntil(simclock.Hour)
	if !h.Up() {
		t.Error("host should remain up")
	}
}

const time10 = 10 * simclock.Minute

func TestHardwareFault(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	h.HardwareFail()
	h.Boot(time10, nil)
	sim.RunUntil(simclock.Hour)
	if h.Up() {
		t.Error("host with hardware fault must not boot")
	}
	h.RepairHardware()
	if h.State() != HostDown {
		t.Errorf("after repair: %v", h.State())
	}
	h.Boot(time10, nil)
	sim.RunUntil(sim.Now() + simclock.Hour)
	if !h.Up() {
		t.Error("host should boot after hardware repair")
	}
}

func TestCPUAccounting(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim) // E4500: 8 CPUs
	h.Spawn("oracle", "dba", 4, 512)
	if got := h.CPUUtilisation(); got != 0.5 {
		t.Errorf("util = %v, want 0.5", got)
	}
	if h.RunQueue() != 0 {
		t.Errorf("run queue = %d", h.RunQueue())
	}
	h.Spawn("batch", "lsf", 6, 256)
	if got := h.CPUUtilisation(); got != 1 {
		t.Errorf("util = %v, want 1 (clamped)", got)
	}
	if h.RunQueue() != 2 {
		t.Errorf("run queue = %d, want 2", h.RunQueue())
	}
}

func TestHungProcessUsesNoCPU(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	p := h.Spawn("oracle", "dba", 4, 512)
	h.SetProcState(p, ProcHung)
	if h.CPUUtilisation() != 0 {
		t.Errorf("hung process should not consume CPU: %v", h.CPUUtilisation())
	}
	if h.MemUsedMB() < 512 {
		t.Error("hung process should still hold memory")
	}
}

func TestMemoryAccounting(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim) // 8192 MB
	base := h.MemUsedMB()
	h.Spawn("oracle", "dba", 0.1, 1000)
	if got := h.MemUsedMB(); got != base+1000 {
		t.Errorf("mem used = %v", got)
	}
	vm := h.VMStat()
	if vm.ScanRate != 0 {
		t.Errorf("no pressure: scan rate %v", vm.ScanRate)
	}
	h.Spawn("hog", "dba", 0.1, 7000)
	vm = h.VMStat()
	if vm.ScanRate == 0 || vm.PageOuts == 0 {
		t.Errorf("memory pressure should wake scanner: %+v", vm)
	}
}

func TestVMStatDownHost(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	h.Crash()
	if vm := h.VMStat(); vm != (VMStat{}) {
		t.Errorf("down host vmstat = %+v", vm)
	}
	if io := h.IOStat(); io != (IOStat{}) {
		t.Errorf("down host iostat = %+v", io)
	}
}

func TestIOStatServiceTimeBlowsUp(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	idle := h.IOStat()
	h.AddDiskActivity(1.4)
	busy := h.IOStat()
	if busy.AsvcMS <= idle.AsvcMS {
		t.Errorf("asvc_t should grow with activity: idle=%v busy=%v", idle.AsvcMS, busy.AsvcMS)
	}
	if busy.WsvcMS <= idle.WsvcMS {
		t.Errorf("wsvc_t should grow with activity: idle=%v busy=%v", idle.WsvcMS, busy.WsvcMS)
	}
	h.AddDiskActivity(10) // clamps
	if h.IOStat().BusyPct > 99 {
		t.Errorf("busy should clamp below 100: %v", h.IOStat().BusyPct)
	}
	h.AddDiskActivity(-100)
	if h.IOStat().BusyPct != 0 {
		t.Errorf("activity should clamp at 0: %v", h.IOStat().BusyPct)
	}
}

func TestNetStatErrors(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	if h.NICErrors() != 0 {
		t.Error("fresh host should have no NIC errors")
	}
	h.InjectNICErrors(9)
	if n := h.NICErrors(); n != 9 {
		t.Errorf("NIC errors = %d, want 9", n)
	}
	h.Crash()
	if n := h.NICErrors(); n != 0 {
		t.Errorf("down host reports %d NIC errors, want 0", n)
	}
	h.ForceUp(sim.Now())
	if n := h.NICErrors(); n != 9 {
		t.Errorf("NIC errors = %d after the host came back, want 9", n)
	}
	h.ClearNICErrors()
	if h.NICErrors() != 0 {
		t.Error("errors should clear")
	}
}

func TestLoginLogout(t *testing.T) {
	sim := simclock.New(1)
	h := newHost(sim)
	h.Login("a")
	h.Login("a")
	h.Login("b")
	if h.UsersLoggedIn() != 2 {
		t.Errorf("users = %d", h.UsersLoggedIn())
	}
	h.Logout("a")
	if h.UsersLoggedIn() != 2 {
		t.Errorf("a still has a session: users = %d", h.UsersLoggedIn())
	}
	h.Logout("a")
	if h.UsersLoggedIn() != 1 {
		t.Errorf("users = %d", h.UsersLoggedIn())
	}
}

func TestDatacentre(t *testing.T) {
	sim := simclock.New(1)
	d := NewDatacentre()
	d.Add(NewHost(sim, "db1", "10.0.0.1", ModelE10K, RoleDatabase, "s", "UK"))
	d.Add(NewHost(sim, "fe1", "10.0.0.2", ModelSP2, RoleFrontEnd, "s", "UK"))
	d.Add(NewHost(sim, "db2", "10.0.0.3", ModelE4500, RoleDatabase, "s", "UK"))
	up := func() (n int) {
		for _, h := range d.Hosts() {
			if h.Up() {
				n++
			}
		}
		return n
	}
	if len(d.Hosts()) != 3 || up() != 3 {
		t.Errorf("size=%d up=%d", len(d.Hosts()), up())
	}
	if d.Host("db1") == nil || d.Host("nope") != nil {
		t.Error("lookup broken")
	}
	dbs := d.ByRole(RoleDatabase)
	if len(dbs) != 2 || dbs[0].Name != "db1" || dbs[1].Name != "db2" {
		t.Errorf("ByRole = %v", dbs)
	}
	d.Host("db1").Crash()
	if up() != 2 {
		t.Errorf("up = %d", up())
	}
}

func TestDatacentreDuplicatePanics(t *testing.T) {
	sim := simclock.New(1)
	d := NewDatacentre()
	d.Add(NewHost(sim, "x", "1", ModelE450, RoleDatabase, "s", "UK"))
	defer func() {
		if recover() == nil {
			t.Error("duplicate host should panic")
		}
	}()
	d.Add(NewHost(sim, "x", "2", ModelE450, RoleDatabase, "s", "UK"))
}

// Property: CPU utilisation is always within [0,1] and run queue is never
// negative, for any mix of process demands.
func TestQuickUtilisationBounds(t *testing.T) {
	f := func(demands []uint8) bool {
		sim := simclock.New(1)
		h := newHost(sim)
		for _, d := range demands {
			h.Spawn("p", "u", float64(d)/16, 10)
		}
		u := h.CPUUtilisation()
		return u >= 0 && u <= 1 && h.RunQueue() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: memory used never exceeds installed memory.
func TestQuickMemoryBounds(t *testing.T) {
	f := func(mems []uint16) bool {
		sim := simclock.New(1)
		h := newHost(sim)
		for _, m := range mems {
			h.Spawn("p", "u", 0, float64(m))
		}
		return h.MemUsedMB() <= float64(h.Model.MemoryMB) && h.MemFreeMB() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
