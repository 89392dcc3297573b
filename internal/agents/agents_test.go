package agents

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/notify"
	"repro/internal/ontology"
	"repro/internal/simclock"
	"repro/internal/svc"
)

type rig struct {
	sim  *simclock.Sim
	host *cluster.Host
	bus  *notify.Bus
	dir  *svc.Directory

	detected []string
	repaired []string
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := simclock.New(17)
	return &rig{
		sim:  sim,
		host: cluster.NewHost(sim, "db001", "10.0.0.1", cluster.ModelE4500, cluster.RoleDatabase, "london-dc1", "UK"),
		bus:  notify.NewBus(),
		dir:  svc.NewDirectory(),
	}
}

func (r *rig) cfg() agent.Config {
	return agent.Config{
		Host:       r.host,
		Services:   r.dir,
		Notify:     r.bus,
		AdminEmail: "oncall@site",
		Detected:   func(aspect string, _ simclock.Time) { r.detected = append(r.detected, aspect) },
		Repaired:   func(aspect string, _ simclock.Time) { r.repaired = append(r.repaired, aspect) },
	}
}

func (r *rig) oracle(t *testing.T) *svc.Service {
	t.Helper()
	s, err := svc.New(r.sim, svc.OracleSpec("ORA-01", 1521), r.host)
	if err != nil {
		t.Fatal(err)
	}
	r.dir.Add(s)
	if err := s.Start(nil); err != nil {
		t.Fatal(err)
	}
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	if !s.Running() {
		t.Fatal("oracle not running")
	}
	return s
}

func TestServiceAgentHealthyRun(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	a, err := NewServiceAgent(r.cfg(), s)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(r.sim)
	if !a.HasFlag("ok") || len(r.detected) != 0 {
		t.Errorf("flags=%v detected=%v", a.Flags(), r.detected)
	}
}

func TestServiceAgentRestartsCrashedDatabase(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	a, _ := NewServiceAgent(r.cfg(), s)
	s.Crash()
	a.Run(r.sim)
	if len(r.detected) != 1 || r.detected[0] != "service.ORA-01" {
		t.Fatalf("detected = %v", r.detected)
	}
	if s.State() != svc.StateStarting {
		t.Fatalf("restart not initiated: %v", s.State())
	}
	if len(r.repaired) != 0 {
		t.Error("repair must not be credited before the service is up")
	}
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	if !s.Running() {
		t.Fatalf("service did not come back: %v", s.State())
	}
	if len(r.repaired) != 1 || r.repaired[0] != "service.ORA-01" {
		t.Errorf("repaired = %v", r.repaired)
	}
	logText := strings.Join(a.LogLines(), "\n")
	if !strings.Contains(logText, "database crashed") {
		t.Errorf("diagnosis should name the database crash:\n%s", logText)
	}
}

func TestServiceAgentRestartsHungService(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	a, _ := NewServiceAgent(r.cfg(), s)
	s.Hang()
	a.Run(r.sim)
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	if !s.Running() {
		t.Fatalf("hung service not recovered: %v", s.State())
	}
	if len(r.repaired) != 1 {
		t.Errorf("repaired = %v", r.repaired)
	}
}

func TestServiceAgentPartialComponentFailure(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	a, _ := NewServiceAgent(r.cfg(), s)
	s.KillComponent("ora_dbwr", 1)
	a.Run(r.sim)
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	if !s.Running() || len(s.MissingProcs()) != 0 {
		t.Fatalf("component not restored: %v missing=%v", s.State(), s.MissingProcs())
	}
}

func TestServiceAgentWedgedEscalates(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	a, _ := NewServiceAgent(r.cfg(), s)
	s.Crash()
	s.Wedged = true
	a.Run(r.sim)
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	if s.Running() {
		t.Fatal("wedged service must not restart")
	}
	if a.Counters().Escalated == 0 {
		t.Error("corruption should escalate to humans")
	}
	if r.bus.CountByTag("agent-escalation") == 0 {
		t.Error("escalation email missing")
	}
}

func TestServiceAgentOverloadDefersToPerformance(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	a, _ := NewServiceAgent(r.cfg(), s)
	r.host.Spawn("hog_sim", "analyst9", 40, 100) // saturate: probe times out
	a.Run(r.sim)
	if s.State() != svc.StateRunning {
		t.Fatalf("service should stay up: %v", s.State())
	}
	if a.Counters().Healed != 0 {
		t.Error("overload is not the service agent's to heal")
	}
	logText := strings.Join(a.LogLines(), "\n")
	if !strings.Contains(logText, "overloaded") {
		t.Errorf("should diagnose overload:\n%s", logText)
	}
}

func TestStatusAgentGeneratesDLSP(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	var reports []string
	cfg := r.cfg()
	cfg.Report = func(kind, payload string) {
		if kind == "dlsp" {
			reports = append(reports, payload)
		}
	}
	a, err := NewStatusAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(r.sim)
	p := r.localDLSP(t)
	if p.Server != "db001" || p.CPUs != 8 {
		t.Errorf("dlsp: %+v", p)
	}
	if len(p.Services) != 1 {
		t.Fatalf("service records: %+v", p.Services)
	}
	if rec := p.Services[0]; rec.Name != "ORA-01" || rec.State != "running" || rec.Kind != "oracle" {
		t.Errorf("service record: %+v", rec)
	}
	if len(reports) != 1 || !strings.Contains(reports[0], "ORA-01") {
		t.Errorf("reports = %d", len(reports))
	}
	// Crash the DB; the next profile must say so.
	s.Crash()
	r.sim.RunUntil(r.sim.Now() + simclock.Minute)
	a.Run(r.sim)
	p = r.localDLSP(t)
	if len(p.Services) != 1 || p.Services[0].State != "crashed" {
		t.Errorf("service records after the crash: %+v", p.Services)
	}
}

// localDLSP decodes the profile the status agent last stored on the rig's
// host.
func (r *rig) localDLSP(t *testing.T) *ontology.DLSP {
	t.Helper()
	lines, err := r.host.FS.ReadLines(DLSPPath)
	if err != nil {
		t.Fatal(err)
	}
	p := &ontology.DLSP{}
	if err := ontology.DecodeDLSPTextInto(p, strings.Join(lines, "\n")); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPerformanceAgentKillsHog(t *testing.T) {
	r := newRig(t)
	r.oracle(t)
	a, err := NewPerformanceAgent(r.cfg())
	if err != nil {
		t.Fatal(err)
	}
	hog := r.host.Spawn("hog_simulation", "analyst9", 7, 100)
	a.Run(r.sim)
	if r.host.Proc(hog.PID) != nil {
		t.Fatal("hog should be killed")
	}
	found := false
	for _, asp := range r.repaired {
		if asp == AspectHog {
			found = true
		}
	}
	if !found {
		t.Errorf("repaired = %v", r.repaired)
	}
	if r.bus.CountByTag("threshold-exceeded") == 0 {
		t.Error("threshold email missing")
	}
}

func TestPerformanceAgentNeverKillsServiceProcs(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	a, _ := NewPerformanceAgent(r.cfg())
	// Saturate using a *service* process (big database workload).
	p := r.host.Spawn("ora_huge_query", "oracle", 9, 100)
	a.Run(r.sim)
	if r.host.Proc(p.PID) == nil {
		t.Error("service-user processes are not the perf agent's to kill")
	}
	if !s.Running() {
		t.Error("service harmed")
	}
}

func TestPerformanceAgentKillsLeaker(t *testing.T) {
	r := newRig(t)
	r.oracle(t)
	a, _ := NewPerformanceAgent(r.cfg())
	leak := r.host.Spawn("leak_model", "analyst3", 0.1, 7000) // 7 GB of 8 GB
	a.Run(r.sim)
	if r.host.Proc(leak.PID) != nil {
		t.Error("leaker should be killed")
	}
}

func TestPerformanceAgentWritesCircularLogs(t *testing.T) {
	r := newRig(t)
	a, _ := NewPerformanceAgent(r.cfg())
	// Three runs past the cap: the oldest kept line is the fourth run's.
	const runs = perfLogLines + 3
	var oldest simclock.Time
	for i := 0; i < runs; i++ {
		if i == runs-perfLogLines {
			oldest = r.sim.Now()
		}
		a.Run(r.sim)
		r.sim.RunUntil(r.sim.Now() + simclock.Minute)
	}
	lines, err := r.host.FS.ReadLines(PerfLogDir("db001") + "/os.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != perfLogLines {
		t.Fatalf("circular log length = %d, want %d", len(lines), perfLogLines)
	}
	if want := strconv.FormatInt(int64(oldest), 10) + "|sr="; !strings.HasPrefix(lines[0], want) {
		t.Errorf("oldest kept line = %s, want it to start %s", lines[0], want)
	}
}

func TestCPUAgentKillsRunaway(t *testing.T) {
	r := newRig(t)
	a, err := NewCPUAgent(r.cfg())
	if err != nil {
		t.Fatal(err)
	}
	hog := r.host.Spawn("hog_x", "analyst1", 10, 50)
	a.Run(r.sim)
	if r.host.Proc(hog.PID) != nil {
		t.Error("runaway survived the CPU agent")
	}
}

func TestMemoryAgentKillsLeaker(t *testing.T) {
	r := newRig(t)
	a, err := NewMemoryAgent(r.cfg())
	if err != nil {
		t.Fatal(err)
	}
	leak := r.host.Spawn("leak_y", "analyst2", 0.1, 7600)
	a.Run(r.sim)
	if r.host.Proc(leak.PID) != nil {
		t.Error("leaker survived the memory agent")
	}
}

func TestDiskAgentWarnsOnly(t *testing.T) {
	r := newRig(t)
	a, err := NewDiskAgent(r.cfg())
	if err != nil {
		t.Fatal(err)
	}
	r.host.AddDiskActivity(1.5)
	a.Run(r.sim)
	if a.Counters().Findings == 0 {
		t.Error("saturated disks should be reported")
	}
	if a.Counters().Healed != 0 || a.Counters().Escalated != 0 {
		t.Errorf("disk agent should only warn: %+v", a.Counters())
	}
}

func TestNetworkAgentEscalatesLinkFault(t *testing.T) {
	r := newRig(t)
	priv := netsim.New(r.sim, "private", simclock.Second, 0)
	pub := netsim.New(r.sim, "public", simclock.Second, 0)
	priv.Attach("db001", nil)
	pub.Attach("db001", nil)
	a, err := NewNetworkAgent(r.cfg(), priv, pub)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(r.sim)
	if a.Counters().Findings != 0 {
		t.Fatalf("healthy network flagged: %+v", a.Counters())
	}
	r.sim.RunUntil(r.sim.Now() + simclock.Minute)
	pub.SetLink("db001", false)
	a.Run(r.sim)
	if len(r.detected) != 1 || r.detected[0] != AspectNet {
		t.Errorf("detected = %v", r.detected)
	}
	if a.Counters().Healed != 0 || a.Counters().Escalated == 0 {
		t.Errorf("network faults must escalate, not heal: %+v", a.Counters())
	}
}

func TestNetworkAgentNICErrors(t *testing.T) {
	r := newRig(t)
	a, _ := NewNetworkAgent(r.cfg())
	r.host.InjectNICErrors(25)
	a.Run(r.sim)
	if len(r.detected) != 1 || r.detected[0] != AspectNet {
		t.Errorf("detected = %v", r.detected)
	}
}

func TestHardwareAgentSensors(t *testing.T) {
	r := newRig(t)
	a, err := NewHardwareAgent(r.cfg())
	if err != nil {
		t.Fatal(err)
	}
	a.Run(r.sim)
	if a.Counters().Findings != 0 {
		t.Error("healthy hardware flagged")
	}
	r.sim.RunUntil(r.sim.Now() + simclock.Minute)
	r.host.InjectSensorFault("cpu-board-3")
	a.Run(r.sim)
	if a.Counters().Escalated == 0 {
		t.Error("hardware fault should escalate")
	}
	if len(r.detected) == 0 || r.detected[0] != AspectSensor {
		t.Errorf("detected = %v", r.detected)
	}
}

// End-to-end: registry + service agent detect and repair a crash, and the
// ledger shows detection within one cron period.
func TestServiceAgentWithRegistry(t *testing.T) {
	r := newRig(t)
	s := r.oracle(t)
	led := metrics.NewLedger()
	bridge := &RegistryBridge{Reg: faultinject.NewRegistry(led)}
	cfg := r.cfg()
	cfg.Detected = bridge.Detected(r.host.Name)
	cfg.Repaired = bridge.Repaired(r.host.Name)
	a, _ := NewServiceAgent(cfg, s)
	a.Schedule(r.sim, 0, 5*simclock.Minute)

	crashAt := r.sim.Now() + 17*simclock.Minute
	r.sim.Schedule(crashAt, "inject", func(now simclock.Time) {
		s.Crash()
		bridge.Reg.Add(metrics.CatMidCrash, r.host.Name, ServiceAspect("ORA-01"), "crash", false, now, nil)
	})
	r.sim.RunUntil(crashAt + simclock.Hour)

	incs := led.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d", len(incs))
	}
	inc := incs[0]
	if !inc.Detected || inc.DetectionLatency() > 5*simclock.Minute {
		t.Errorf("detection latency = %v (detected=%v)", inc.DetectionLatency(), inc.Detected)
	}
	if !inc.Resolved || inc.ResolvedBy != "intelliagent" {
		t.Errorf("incident not resolved by agent: %+v", inc)
	}
	if !s.Running() {
		t.Error("service should be running again")
	}
}
