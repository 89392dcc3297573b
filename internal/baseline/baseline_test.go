package baseline

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/simclock"
)

func newHost(sim *simclock.Sim) *cluster.Host {
	return cluster.NewHost(sim, "db001", "10.0.0.1", cluster.ModelE4500, cluster.RoleDatabase, "london", "UK")
}

// polling installs a monitor on h and polls it every 5 minutes.
func polling(sim *simclock.Sim, h *cluster.Host) *Monitor {
	m := Install(sim, h, DefaultFootprint())
	m.StartPolling(sim, 5*simclock.Minute)
	return m
}

// TestInstallWithoutPolling: Install alone spawns the daemon at its idle
// footprint and schedules nothing, so the footprint holds however the
// host's load moves.
func TestInstallWithoutPolling(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	pending := sim.Pending()
	m := Install(sim, h, DefaultFootprint())
	if got := sim.Pending(); got != pending {
		t.Fatalf("Install scheduled %d events, want none", got-pending)
	}
	if !m.Resident() || len(h.PGrep("bmcpatrol")) != 1 {
		t.Fatal("daemon should be resident immediately")
	}
	h.Spawn("busywork", "analyst1", 6.5, 1000)
	sim.RunUntil(simclock.Hour)
	fp := DefaultFootprint()
	if m.CPUPercent() != fp.CPUBasePct || m.MemMB() != fp.MemBaseMB {
		t.Errorf("unpolled footprint = %.3f%% / %.1f MB, want the idle %.3f%% / %.1f MB",
			m.CPUPercent(), m.MemMB(), fp.CPUBasePct, fp.MemBaseMB)
	}
}

func TestResidentDaemon(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := polling(sim, h)
	if !m.Resident() {
		t.Fatal("daemon should be resident immediately")
	}
	if len(h.PGrep("bmcpatrol")) != 1 {
		t.Error("bmcpatrol missing from process table")
	}
	sim.RunUntil(simclock.Hour)
	if !m.Resident() {
		t.Error("daemon should stay resident — that is the point")
	}
}

func TestFootprintGrowsWithLoad(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := polling(sim, h)
	sim.RunUntil(simclock.Hour)
	idleCPU, idleMem := m.CPUPercent(), m.MemMB()
	h.Spawn("busywork", "analyst1", 6.5, 1000)
	sim.RunUntil(2 * simclock.Hour)
	busyCPU, busyMem := m.CPUPercent(), m.MemMB()
	if busyCPU <= idleCPU {
		t.Errorf("CPU should grow with load: idle=%.3f busy=%.3f", idleCPU, busyCPU)
	}
	if busyMem <= idleMem {
		t.Errorf("memory should grow with load: idle=%.1f busy=%.1f", idleMem, busyMem)
	}
	// Paper ranges at peak: CPU up to ~1.1%, memory up to ~58 MB.
	if busyCPU < 0.3 || busyCPU > 1.5 {
		t.Errorf("busy CPU%% = %.3f, want within Figure 3's ballpark", busyCPU)
	}
	if busyMem < 30 || busyMem > 70 {
		t.Errorf("busy mem = %.1f MB, want within Figure 4's ballpark", busyMem)
	}
}

func TestDaemonDiesWithHostAndRespawns(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := polling(sim, h)
	h.Crash()
	sim.RunUntil(sim.Now() + 6*simclock.Minute)
	if m.Resident() || m.CPUPercent() != 0 || m.MemMB() != 0 {
		t.Error("daemon should be gone with its host")
	}
	h.Boot(simclock.Minute, nil)
	sim.RunUntil(sim.Now() + 10*simclock.Minute)
	if !m.Resident() {
		t.Error("daemon should respawn when the host returns")
	}
}

// TestKilledDaemonObjectRecycled: the host hands a killed process's object
// to its next spawn, so a monitor whose daemon was killed must not take
// the next process for its daemon — it respawns the daemon at the next
// poll and leaves the other process alone.
func TestKilledDaemonObjectRecycled(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := polling(sim, h)
	h.Kill(h.PGrep("bmcpatrol")[0].PID)
	busy := h.Spawn("busywork", "analyst1", 2.0, 100)
	if m.Resident() {
		t.Error("killed daemon reported resident")
	}
	sim.RunUntil(sim.Now() + 6*simclock.Minute)
	if !m.Resident() || len(h.PGrep("bmcpatrol")) != 1 {
		t.Errorf("daemon not respawned: resident=%v bmcpatrol=%d", m.Resident(), len(h.PGrep("bmcpatrol")))
	}
	if busy.Name != "busywork" || busy.CPUDemand != 2.0 || busy.MemMB != 100 {
		t.Errorf("poll rewrote another process: %v", busy)
	}
}

// TestDeadDaemonReportsNoFootprint: a host crash kills the daemon at once,
// so its footprint reads zero before the next poll notices, not only
// after it.
func TestDeadDaemonReportsNoFootprint(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := polling(sim, h)
	sim.RunUntil(simclock.Hour)
	if m.CPUPercent() == 0 || m.MemMB() == 0 {
		t.Fatalf("live daemon footprint: cpu=%.3f mem=%.1f, want non-zero", m.CPUPercent(), m.MemMB())
	}
	h.Crash()
	if m.Resident() {
		t.Fatal("daemon still resident after its host crashed")
	}
	if cpu, mem := m.CPUPercent(), m.MemMB(); cpu != 0 || mem != 0 {
		t.Errorf("dead daemon footprint before the next poll: cpu=%.3f mem=%.1f, want 0", cpu, mem)
	}
}
