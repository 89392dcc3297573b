package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/notify"
	"repro/internal/simclock"
	"repro/internal/svc"
)

func newHost(sim *simclock.Sim) *cluster.Host {
	return cluster.NewHost(sim, "db001", "10.0.0.1", cluster.ModelE4500, cluster.RoleDatabase, "london", "UK")
}

func TestResidentDaemon(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := Install(simclock.NewWheel(sim), h, DefaultFootprint(), nil, "", 5*simclock.Minute, nil)
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
	m := Install(simclock.NewWheel(sim), h, DefaultFootprint(), nil, "", 5*simclock.Minute, nil)
	sim.RunUntil(simclock.Hour)
	idleCPU, idleMem := m.CPUPercent(), m.MemMB()
	h.Spawn("busywork", "analyst1", "", 6.5, 1000)
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

func TestAlertsOnFailedProbe(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	dir := svc.NewDirectory()
	s, _ := svc.New(sim, svc.OracleSpec("ORA-01", 1521), h)
	dir.Add(s)
	s.Start(nil)
	sim.RunUntil(10 * simclock.Minute)
	bus := notify.NewBus(sim)
	m := Install(simclock.NewWheel(sim), h, DefaultFootprint(), bus, "console@noc", 5*simclock.Minute, dir)
	sim.RunUntil(sim.Now() + 20*simclock.Minute)
	if m.Alerts != 0 {
		t.Fatalf("healthy service alerted %d times", m.Alerts)
	}
	s.Crash()
	sim.RunUntil(sim.Now() + 11*simclock.Minute)
	if m.Alerts == 0 {
		t.Error("crashed service should raise console alerts")
	}
	if bus.CountByTag("bmc-alert") == 0 {
		t.Error("console notification missing")
	}
}

func TestDaemonDiesWithHostAndRespawns(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := Install(simclock.NewWheel(sim), h, DefaultFootprint(), nil, "", 5*simclock.Minute, nil)
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

func TestStop(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := Install(simclock.NewWheel(sim), h, DefaultFootprint(), nil, "", 5*simclock.Minute, nil)
	m.Stop()
	if m.Resident() || len(h.PGrep("bmcpatrol")) != 0 {
		t.Error("Stop should remove the daemon")
	}
}

// TestDeadDaemonReportsNoFootprint: a host crash kills the daemon at once,
// so its footprint reads zero before the next poll notices, not only
// after it.
func TestDeadDaemonReportsNoFootprint(t *testing.T) {
	sim := simclock.New(31)
	h := newHost(sim)
	m := Install(simclock.NewWheel(sim), h, DefaultFootprint(), nil, "", 5*simclock.Minute, nil)
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

// fleet installs one monitor per host on a shared wheel, in the given
// order, each host carrying a crashed Oracle so every poll raises an
// alert naming its host.
func fleet(t *testing.T, names ...string) (*simclock.Sim, *simclock.Wheel, *notify.Bus, []*Monitor) {
	t.Helper()
	sim := simclock.New(31)
	dir := svc.NewDirectory()
	var hosts []*cluster.Host
	var services []*svc.Service
	for i, name := range names {
		h := cluster.NewHost(sim, name, fmt.Sprintf("10.0.0.%d", i+1), cluster.ModelE4500, cluster.RoleDatabase, "london", "UK")
		s, err := svc.New(sim, svc.OracleSpec("ORA-"+name, 1521), h)
		if err != nil {
			t.Fatal(err)
		}
		dir.Add(s)
		s.Start(nil)
		hosts = append(hosts, h)
		services = append(services, s)
	}
	sim.RunUntil(10 * simclock.Minute)
	for _, s := range services {
		s.Crash()
	}
	bus := notify.NewBus(sim)
	w := simclock.NewWheel(sim)
	var ms []*Monitor
	for _, h := range hosts {
		ms = append(ms, Install(w, h, DefaultFootprint(), bus, "console@noc", 5*simclock.Minute, dir))
	}
	return sim, w, bus, ms
}

// alertSenders lists the senders of the bus's alerts, in send order.
func alertSenders(bus *notify.Bus) []string {
	var out []string
	for _, n := range bus.History() {
		if n.Tag == "bmc-alert" {
			out = append(out, n.From)
		}
	}
	return out
}

// TestMonitorsShareOneBucket pins the coalescing: monitors installed on
// one wheel at the same instant keep one pending heap event between
// them, and poll in install order every round.
func TestMonitorsShareOneBucket(t *testing.T) {
	sim, w, bus, ms := fleet(t, "db003", "db001", "db002")
	if w.Len() != len(ms) || w.Buckets() != 1 {
		t.Fatalf("wheel holds %d entries in %d buckets, want %d in 1", w.Len(), w.Buckets(), len(ms))
	}
	if got := sim.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1: one heap event for the whole fleet", got)
	}
	sim.RunUntil(sim.Now() + 10*simclock.Minute)
	round := []string{"bmc@db003", "bmc@db001", "bmc@db002"}
	want := append(append([]string{}, round...), round...)
	if got := alertSenders(bus); !reflect.DeepEqual(got, want) {
		t.Errorf("poll order = %v, want install order twice %v", got, want)
	}
	if got := sim.Pending(); got != 1 {
		t.Errorf("Pending() = %d after two rounds, want 1", got)
	}
}

// TestStoppedMonitorNeverPollsAgain: Stop takes the monitor off the
// wheel, so its host's crashed service raises no further alerts while
// the rest of the fleet keeps polling.
func TestStoppedMonitorNeverPollsAgain(t *testing.T) {
	sim, w, bus, ms := fleet(t, "db001", "db002")
	sim.RunUntil(sim.Now() + 5*simclock.Minute)
	before := len(alertSenders(bus))
	ms[0].Stop()
	if got := w.Len(); got != len(ms)-1 {
		t.Fatalf("wheel Len() = %d after Stop, want %d", got, len(ms)-1)
	}
	sim.RunUntil(sim.Now() + simclock.Hour)
	for _, from := range alertSenders(bus)[before:] {
		if from == "bmc@db001" {
			t.Fatal("stopped monitor raised an alert")
		}
	}
	if ms[0].Alerts != 1 || ms[1].Alerts != 13 {
		t.Errorf("alerts = %d, %d; want 1 (before Stop) and 13 (one per round)", ms[0].Alerts, ms[1].Alerts)
	}
}
