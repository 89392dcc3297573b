package agents

import (
	"strings"
	"testing"

	"repro/internal/simclock"
	"repro/internal/svc"
)

func TestDatabaseAgentMeasures(t *testing.T) {
	r := newRig(t)
	db := r.oracle(t)
	a, err := NewDatabaseAgent(r.cfg(), db)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(r.sim)
	lines, err := r.host.FS.ReadLines(PerfLogDir("db001") + "/db-ORA-01.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "connect=") || !strings.Contains(lines[0], "users=") {
		t.Errorf("measurement line: %v", lines)
	}
	if a.Counters().Findings != 0 {
		t.Errorf("healthy database flagged: %+v", a.Counters())
	}
}

func TestDatabaseAgentRejectsNonDatabase(t *testing.T) {
	r := newRig(t)
	web, _ := svc.New(r.sim, svc.WebSpec("WEB-01", 80), r.host)
	r.dir.Add(web)
	if _, err := NewDatabaseAgent(r.cfg(), web); err == nil {
		t.Error("web server should be rejected")
	}
}

func TestDatabaseAgentThresholdAlert(t *testing.T) {
	r := newRig(t)
	db := r.oracle(t)
	a, _ := NewDatabaseAgent(r.cfg(), db)
	// Load the host until connect/request times blow past the DBA
	// baseline (connect > 5s needs heavy contention).
	r.host.Spawn("batch1", "analyst1", 7.7, 100)
	a.Run(r.sim)
	if a.Counters().Findings == 0 {
		t.Fatal("overloaded database should trip thresholds")
	}
	if r.bus.CountByTag("threshold-exceeded") == 0 {
		t.Error("DBA email missing")
	}
	if a.Counters().Healed != 0 {
		t.Error("measurement agent must not repair")
	}
}

func TestDatabaseAgentStandsAsideWhenDown(t *testing.T) {
	r := newRig(t)
	db := r.oracle(t)
	a, _ := NewDatabaseAgent(r.cfg(), db)
	db.Crash()
	a.Run(r.sim)
	if a.Counters().Findings != 0 {
		t.Error("down database is the service agent's problem")
	}
	lines, _ := r.host.FS.ReadLines(PerfLogDir("db001") + "/db-ORA-01.log")
	if len(lines) != 1 || !strings.Contains(lines[0], "state=crashed") {
		t.Errorf("gap not recorded: %v", lines)
	}
}

func TestEndToEndProbeHealthyStack(t *testing.T) {
	r := newRig(t)
	db := r.oracle(t)
	fe, _ := svc.New(r.sim, svc.FrontEndSpec("FE-01", 8080, "ORA-01"), r.host)
	r.dir.Add(fe)
	fe.Start(nil)
	r.sim.RunUntil(r.sim.Now() + 5*simclock.Minute)
	lat, ok := EndToEndProbe(r.dir, fe)
	if !ok || lat <= 0 {
		t.Errorf("healthy stack: lat=%v ok=%v", lat, ok)
	}
	// Latency covers both hops.
	if lat <= db.ResponseLatency() {
		t.Errorf("end-to-end latency should exceed one hop: %v", lat)
	}
}

func TestEndToEndAgentLocalisesBrokenHop(t *testing.T) {
	r := newRig(t)
	db := r.oracle(t)
	fe, _ := svc.New(r.sim, svc.FrontEndSpec("FE-01", 8080, "ORA-01"), r.host)
	r.dir.Add(fe)
	fe.Start(nil)
	r.sim.RunUntil(r.sim.Now() + 5*simclock.Minute)

	a, err := NewEndToEndAgent(r.cfg(), fe, 30*simclock.Second)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(r.sim)
	if a.Counters().Findings != 0 {
		t.Fatalf("healthy stack flagged: %+v", a.Counters())
	}
	// Break the *database* underneath the front-end: the e2e agent must
	// name the database, not the front-end.
	r.sim.RunUntil(r.sim.Now() + simclock.Minute)
	db.Crash()
	a.Run(r.sim)
	logText := strings.Join(a.LogLines(), "\n")
	if !strings.Contains(logText, "component ORA-01 failing") {
		t.Errorf("broken hop not localised:\n%s", logText)
	}
	if a.Counters().Healed != 0 {
		t.Error("e2e agent must defer repair to component agents")
	}
}

func TestEndToEndAgentLatencyWarning(t *testing.T) {
	r := newRig(t)
	r.oracle(t)
	fe, _ := svc.New(r.sim, svc.FrontEndSpec("FE-01", 8080, "ORA-01"), r.host)
	r.dir.Add(fe)
	fe.Start(nil)
	r.sim.RunUntil(r.sim.Now() + 5*simclock.Minute)
	// Absurdly tight budget: healthy latency trips the warning.
	a, _ := NewEndToEndAgent(r.cfg(), fe, simclock.Time(1))
	a.Run(r.sim)
	if a.Counters().Findings != 1 {
		t.Errorf("latency warning missing: %+v", a.Counters())
	}
}
