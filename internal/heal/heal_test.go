package heal

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/simclock"
	"repro/internal/svc"
)

type rig struct {
	sim  *simclock.Sim
	host *cluster.Host
	dir  *svc.Directory
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := simclock.New(5)
	return &rig{
		sim:  sim,
		host: cluster.NewHost(sim, "db001", "10.0.0.1", cluster.ModelE4500, cluster.RoleDatabase, "london", "UK"),
		dir:  svc.NewDirectory(),
	}
}

func (r *rig) service(t *testing.T, spec svc.Spec, start bool) *svc.Service {
	t.Helper()
	s, err := svc.New(r.sim, spec, r.host)
	if err != nil {
		t.Fatal(err)
	}
	r.dir.Add(s)
	if start {
		s.Start(nil)
		r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
		if !s.Running() {
			t.Fatal("service did not start")
		}
	}
	return s
}

func TestRestartCrashedService(t *testing.T) {
	r := newRig(t)
	s := r.service(t, svc.OracleSpec("ORA-01", 1521), true)
	s.Crash()
	var upAt simclock.Time
	if err := RestartService(r.sim, s, func(now simclock.Time) { upAt = now }); err != nil {
		t.Fatal(err)
	}
	start := r.sim.Now()
	r.sim.RunUntil(start + 10*simclock.Minute)
	if !s.Running() {
		t.Fatalf("state = %v", s.State())
	}
	if upAt != start+s.Spec.StartupTime {
		t.Errorf("onUp at %v, want %v", upAt, start+s.Spec.StartupTime)
	}
}

func TestRestartHungService(t *testing.T) {
	r := newRig(t)
	s := r.service(t, svc.OracleSpec("ORA-01", 1521), true)
	s.Hang()
	if err := RestartService(r.sim, s, nil); err != nil {
		t.Fatal(err)
	}
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	if !s.Running() {
		t.Fatalf("state = %v", s.State())
	}
	if r.host.PGrep("ora_pmon")[0].State != cluster.ProcRunning {
		t.Error("restarted processes should be running, not hung")
	}
}

func TestRestartRunningServiceBounces(t *testing.T) {
	r := newRig(t)
	s := r.service(t, svc.OracleSpec("ORA-01", 1521), true)
	if err := RestartService(r.sim, s, nil); err != nil {
		t.Fatal(err)
	}
	if s.State() != svc.StateStarting {
		t.Errorf("bounce should pass through starting: %v", s.State())
	}
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	if !s.Running() {
		t.Error("bounced service should come back")
	}
}

func TestRestartWhileStartingWaits(t *testing.T) {
	r := newRig(t)
	s := r.service(t, svc.OracleSpec("ORA-01", 1521), false)
	s.Start(nil)
	called := false
	if err := RestartService(r.sim, s, func(simclock.Time) { called = true }); err != nil {
		t.Fatal(err)
	}
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	if !s.Running() || !called {
		t.Errorf("running=%v onUp=%v", s.Running(), called)
	}
}

func TestRestartOnDownHostErrors(t *testing.T) {
	r := newRig(t)
	s := r.service(t, svc.OracleSpec("ORA-01", 1521), true)
	r.host.Crash()
	if err := RestartService(r.sim, s, nil); err == nil {
		t.Error("restart on a dead host should error")
	}
}

func TestRestartStack(t *testing.T) {
	r := newRig(t)
	db := r.service(t, svc.OracleSpec("DB", 1521), true)
	web := r.service(t, svc.WebSpec("WEB", 80), true)
	fe := r.service(t, svc.FrontEndSpec("FE", 8080, "DB", "WEB"), true)
	// DB crash takes the front-end's dependency away.
	db.Crash()
	fe.Crash()
	var doneAt simclock.Time
	if err := RestartStack(r.sim, r.dir, db, func(now simclock.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	r.sim.RunUntil(r.sim.Now() + 30*simclock.Minute)
	if !db.Running() || !fe.Running() || !web.Running() {
		t.Fatalf("states: db=%v fe=%v web=%v", db.State(), fe.State(), web.State())
	}
	if doneAt == 0 {
		t.Error("onAllUp not called")
	}
}

func TestRestartStackAllHealthyCallsBack(t *testing.T) {
	r := newRig(t)
	db := r.service(t, svc.OracleSpec("DB", 1521), true)
	called := false
	if err := RestartStack(r.sim, r.dir, db, func(simclock.Time) { called = true }); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("healthy stack should call back immediately")
	}
}

func TestKillProcess(t *testing.T) {
	r := newRig(t)
	p := r.host.Spawn("x", "u", 0, 1)
	if !KillProcess(r.host, p.PID) || KillProcess(r.host, p.PID) {
		t.Error("KillProcess semantics broken")
	}
}

func TestRebootHost(t *testing.T) {
	r := newRig(t)
	s := r.service(t, svc.OracleSpec("ORA-01", 1521), true)
	r.host.Crash()
	var upAt simclock.Time
	RebootHost(r.sim, r.host, 5*simclock.Minute, []*svc.Service{s}, func(now simclock.Time) { upAt = now })
	r.sim.RunUntil(r.sim.Now() + 30*simclock.Minute)
	if !r.host.Up() || !s.Running() {
		t.Fatalf("host=%v svc=%v", r.host.State(), s.State())
	}
	if upAt == 0 {
		t.Error("onUp not called")
	}
}

func TestEnsureServiceRunning(t *testing.T) {
	r := newRig(t)
	s := r.service(t, svc.OracleSpec("ORA-01", 1521), true)
	fix := EnsureServiceRunning(r.sim, s)
	if !fix(r.sim.Now()) {
		t.Error("already-running service should report fixed")
	}
	s.Crash()
	if !fix(r.sim.Now()) {
		t.Error("manual fix should succeed")
	}
	if !s.Running() {
		t.Errorf("state after manual fix = %v (instant)", s.State())
	}
	r.host.Crash()
	if fix(r.sim.Now()) {
		t.Error("fix on dead host should fail")
	}
}

func TestEnsureHostUp(t *testing.T) {
	r := newRig(t)
	s := r.service(t, svc.OracleSpec("ORA-01", 1521), true)
	r.host.HardwareFail()
	fix := EnsureHostUp(r.sim, r.host, []*svc.Service{s})
	if !fix(r.sim.Now()) {
		t.Error("hardware repair should succeed")
	}
	if !r.host.Up() || !s.Running() {
		t.Errorf("host=%v svc=%v", r.host.State(), s.State())
	}
	if !fix(r.sim.Now()) {
		t.Error("idempotent fix should keep reporting true")
	}
}
