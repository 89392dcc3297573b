package svc

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simclock"
)

func testHost(sim *simclock.Sim) *cluster.Host {
	return cluster.NewHost(sim, "db001", "10.0.0.1", cluster.ModelE4500, cluster.RoleDatabase, "london", "UK")
}

func startedService(t *testing.T, sim *simclock.Sim, h *cluster.Host) *Service {
	t.Helper()
	s, err := New(sim, OracleSpec("ORA-01", 1521), h)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(nil); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(sim.Now() + 10*simclock.Minute)
	if s.State() != StateRunning {
		t.Fatalf("service not running: %v", s.State())
	}
	return s
}

func TestSpecValidate(t *testing.T) {
	good := OracleSpec("ORA-01", 1521)
	if err := good.Validate(); err != nil {
		t.Errorf("good spec invalid: %v", err)
	}
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name should be invalid")
	}
	bad = good
	bad.Components = nil
	if bad.Validate() == nil {
		t.Error("no components should be invalid")
	}
	bad = good
	bad.ConnectTimeout = 0
	if bad.Validate() == nil {
		t.Error("no timeout should be invalid")
	}
	bad = good
	bad.Components = []Component{{ProcName: "x", Count: 0}}
	if bad.Validate() == nil {
		t.Error("zero count component should be invalid")
	}
}

func TestAllCanonicalSpecsValid(t *testing.T) {
	kinds := []Kind{KindOracle, KindSybase, KindWeb, KindFront, KindLSF, KindFeed}
	for _, k := range kinds {
		spec, err := SpecFor(k, "test-"+string(k), 9000)
		if err != nil {
			t.Errorf("SpecFor(%s): %v", k, err)
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", k, err)
		}
		if spec.Kind.ProbeCommand() == "" {
			t.Errorf("kind %s has no probe command", k)
		}
	}
	if _, err := SpecFor(Kind("cobol"), "x", 1); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestStartLifecycle(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s, _ := New(sim, OracleSpec("ORA-01", 1521), h)
	if s.State() != StateStopped {
		t.Errorf("initial state: %v", s.State())
	}
	var runningAt simclock.Time
	s.Start(func(now simclock.Time) { runningAt = now })
	if s.State() != StateStarting {
		t.Errorf("state after Start: %v", s.State())
	}
	// Processes appear immediately.
	if len(h.PGrep("ora_pmon")) != 1 || len(h.PGrep("ora_dbwr")) != 2 {
		t.Error("components should be spawned in the process table")
	}
	// Probe during startup is refused.
	if r := s.Probe(); r.ExitCode != ExitRefused {
		t.Errorf("probe while starting: %v", r)
	}
	sim.RunUntil(10 * simclock.Minute)
	if s.State() != StateRunning || runningAt != s.Spec.StartupTime {
		t.Errorf("state=%v runningAt=%v", s.State(), runningAt)
	}
	if len(s.MissingProcs()) != 0 {
		t.Errorf("missing procs on healthy service: %v", s.MissingProcs())
	}
}

func TestDoubleStartNoop(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	n := h.NProcs()
	if err := s.Start(nil); err != nil {
		t.Fatal(err)
	}
	if h.NProcs() != n {
		t.Error("double start duplicated processes")
	}
}

func TestStartOnDownHost(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	h.Crash()
	s, _ := New(sim, OracleSpec("ORA-01", 1521), h)
	if err := s.Start(nil); err == nil {
		t.Error("start on down host should fail")
	}
}

func TestStopRemovesProcs(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	s.Stop()
	if s.State() != StateStopped || h.NProcs() != 0 {
		t.Errorf("state=%v procs=%d", s.State(), h.NProcs())
	}
}

func TestCrashAndProbe(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	if r := s.Probe(); !r.OK() {
		t.Fatalf("healthy probe failed: %v", r)
	}
	s.Crash()
	if s.State() != StateCrashed {
		t.Errorf("state after crash = %v", s.State())
	}
	r := s.Probe()
	if r.ExitCode != ExitRefused {
		t.Errorf("crashed probe: %v", r)
	}
	if h.NProcs() != 0 {
		t.Error("crash should remove processes")
	}
}

func TestHangAndProbe(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	s.Hang()
	if s.State() != StateHung {
		t.Errorf("state = %v", s.State())
	}
	if h.NProcs() == 0 {
		t.Error("hung service should keep processes in ps")
	}
	r := s.Probe()
	if r.ExitCode != ExitTimeout || r.Latency != s.Spec.ConnectTimeout {
		t.Errorf("hung probe: %v", r)
	}
}

func TestHostCrashImpliesServiceCrashed(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	h.Crash()
	if s.State() != StateCrashed {
		t.Errorf("state = %v", s.State())
	}
	if r := s.Probe(); r.ExitCode != ExitTimeout {
		t.Errorf("probe against down host: %v", r)
	}
}

func TestDegradedLatency(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	healthy := s.ResponseLatency()
	s.Degrade()
	if s.State() != StateDegraded {
		t.Errorf("state = %v", s.State())
	}
	if s.ResponseLatency() <= healthy {
		t.Error("degraded latency should exceed healthy latency")
	}
	s.Recover()
	if s.State() != StateRunning {
		t.Errorf("after recover: %v", s.State())
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	idle := s.ResponseLatency()
	h.Spawn("hog", "u", 7.5, 100) // E4500 has 8 CPUs
	if s.ResponseLatency() <= idle {
		t.Error("latency should grow under load")
	}
}

func TestProbeTimesOutUnderSaturation(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	h.Spawn("hog", "u", 1000, 100)
	r := s.Probe()
	if r.ExitCode != ExitTimeout {
		t.Errorf("saturated probe should time out: %v", r)
	}
}

func TestKillComponentDetectedByProbe(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	if got := s.KillComponent("ora_dbwr", 1); got != 1 {
		t.Fatalf("killed %d", got)
	}
	r := s.Probe()
	if r.ExitCode != ExitError {
		t.Errorf("partial failure probe: %v", r)
	}
	if !strings.Contains(r.Detail, "ora_dbwr") {
		t.Errorf("detail should pinpoint the component: %s", r.Detail)
	}
	missing := s.MissingProcs()
	if len(missing) != 1 || missing[0] != "ora_dbwr" {
		t.Errorf("MissingProcs = %v", missing)
	}
}

func TestConnections(t *testing.T) {
	sim := simclock.New(1)
	s := startedService(t, sim, testHost(sim))
	s.Connect()
	s.Connect()
	s.Disconnect()
	if s.Connections() != 1 {
		t.Errorf("connections = %d", s.Connections())
	}
	s.Disconnect()
	s.Disconnect() // below zero clamps
	if s.Connections() != 0 {
		t.Errorf("connections = %d", s.Connections())
	}
}

func TestDirectory(t *testing.T) {
	sim := simclock.New(1)
	h1 := testHost(sim)
	h2 := cluster.NewHost(sim, "web01", "10.0.0.2", cluster.ModelSP2, cluster.RoleFrontEnd, "london", "UK")
	d := NewDirectory()
	ora, _ := New(sim, OracleSpec("ORA-01", 1521), h1)
	web, _ := New(sim, WebSpec("WEB-01", 80), h2)
	fe, _ := New(sim, FrontEndSpec("FE-01", 8080, "ORA-01", "WEB-01"), h2)
	d.Add(ora)
	d.Add(web)
	d.Add(fe)
	if len(d.order) != 3 || d.Get("ORA-01") != ora || d.Get("nope") != nil {
		t.Error("directory lookup broken")
	}
	if got := d.OnHost("web01"); len(got) != 2 {
		t.Errorf("OnHost = %d services", len(got))
	}
	if got := d.ByKind(KindOracle); len(got) != 1 || got[0] != ora {
		t.Errorf("ByKind = %v", got)
	}
}

func TestDirectoryDuplicatePanics(t *testing.T) {
	sim := simclock.New(1)
	d := NewDirectory()
	s, _ := New(sim, WebSpec("W", 80), testHost(sim))
	d.Add(s)
	defer func() {
		if recover() == nil {
			t.Error("duplicate add should panic")
		}
	}()
	s2, _ := New(sim, WebSpec("W", 81), testHost(sim))
	d.Add(s2)
}

func TestStartOrder(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	d := NewDirectory()
	fe, _ := New(sim, FrontEndSpec("FE", 1, "DB", "WEB"), h)
	db, _ := New(sim, OracleSpec("DB", 1521), h)
	web, _ := New(sim, WebSpec("WEB", 80), h)
	d.Add(fe) // registered before its dependencies
	d.Add(db)
	d.Add(web)
	order, err := d.StartOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, s := range order {
		pos[s.Spec.Name] = i
	}
	if pos["DB"] > pos["FE"] || pos["WEB"] > pos["FE"] {
		t.Errorf("dependencies must start first: %v", pos)
	}
}

func TestStartOrderCycle(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	d := NewDirectory()
	a := FrontEndSpec("A", 1, "B")
	b := FrontEndSpec("B", 2, "A")
	sa, _ := New(sim, a, h)
	sb, _ := New(sim, b, h)
	d.Add(sa)
	d.Add(sb)
	if _, err := d.StartOrder(); err == nil {
		t.Error("cycle should be detected")
	}
}

func TestRestartAfterCrash(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	s := startedService(t, sim, h)
	s.Crash()
	if err := s.Start(nil); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(sim.Now() + 10*simclock.Minute)
	if s.State() != StateRunning {
		t.Errorf("state after restart: %v", s.State())
	}
	if r := s.Probe(); !r.OK() {
		t.Errorf("probe after restart: %v", r)
	}
}

// TestProcChecksMatchPGrep runs services that share a host — two Oracle
// instances with the same process names, and a web server — through
// starts, component kills, hangs, a stop, a batch job, a host crash and
// boot, and a reset.
// After every step AllProcsPresent, MissingProcs and ProcCounts must agree
// with a PGrep recount of the process table.
func TestProcChecksMatchPGrep(t *testing.T) {
	sim := simclock.New(1)
	h := testHost(sim)
	ora1, _ := New(sim, OracleSpec("ORA-01", 1521), h)
	ora2, _ := New(sim, OracleSpec("ORA-02", 1522), h)
	web, _ := New(sim, WebSpec("WEB-01", 80), h)
	all := []*Service{ora1, ora2, web}
	var stray int
	startAll := func() {
		for _, s := range all {
			_ = s.Start(nil)
		}
		sim.RunUntil(sim.Now() + 10*simclock.Minute)
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"new", func() {}},
		{"start", startAll},
		{"kill component", func() { ora1.KillComponent("ora_dbwr", 2) }},
		{"kill shared name", func() { ora2.KillComponent("ora_pmon", 1) }},
		{"hang", func() { web.Hang() }},
		{"stray process", func() { stray = h.Spawn("httpd", "www", 0.01, 4).PID }},
		{"restart", func() { ora1.Stop(); startAll() }},
		{"stop", func() { web.Stop(); h.Kill(stray) }},
		{"batch job", func() { h.Spawn("lsf_job_1", "analyst1", 0.5, 64) }},
		{"start after stop", startAll},
		{"host crash", func() { h.Crash() }},
		{"boot", func() { h.Boot(simclock.Minute, nil); sim.RunUntil(sim.Now() + 2*simclock.Minute) }},
		{"start after boot", startAll},
		{"hang after boot", func() { ora2.Hang() }},
		{"reset", func() {
			h.Reset()
			for _, s := range all {
				s.Reset()
			}
		}},
		{"start after reset", startAll},
	}
	for _, st := range steps {
		st.do()
		for _, s := range all {
			var want []string
			present, hung := 0, 0
			for _, c := range s.Spec.Components {
				ps := h.PGrep(c.ProcName)
				if len(ps) < c.Count {
					want = append(want, c.ProcName)
				}
				present += len(ps)
				for _, p := range ps {
					if p.State == cluster.ProcHung {
						hung++
					}
				}
			}
			if got := s.MissingProcs(); !slices.Equal(got, want) {
				t.Errorf("%s: %s MissingProcs = %v, PGrep says %v", st.name, s.Spec.Name, got, want)
			}
			if got := s.AllProcsPresent(); got != (len(want) == 0) {
				t.Errorf("%s: %s AllProcsPresent = %v, PGrep says missing %v", st.name, s.Spec.Name, got, want)
			}
			if p, hg := s.ProcCounts(); p != present || hg != hung {
				t.Errorf("%s: %s ProcCounts = %d, %d, PGrep says %d, %d", st.name, s.Spec.Name, p, hg, present, hung)
			}
		}
	}
}

// BenchmarkServiceProbe measures the health check every probe walk and
// BMC poll runs on a healthy service: a five-component Oracle instance
// sharing its host with LSF daemons and a batch job, and a one-component
// web server. It must not allocate.
func BenchmarkServiceProbe(b *testing.B) {
	sim := simclock.New(1)
	db := testHost(sim)
	web := cluster.NewHost(sim, "web001", "10.0.1.1", cluster.ModelLinux, cluster.RoleFrontEnd, "london", "UK")
	ora, _ := New(sim, OracleSpec("ORA-01", 1521), db)
	lsfd, _ := New(sim, LSFSpec("LSF-01"), db)
	httpd, _ := New(sim, WebSpec("WEB-01", 80), web)
	for _, s := range []*Service{ora, lsfd, httpd} {
		if err := s.Start(nil); err != nil {
			b.Fatal(err)
		}
	}
	db.Spawn("lsf_job_1", "analyst1", 1.5, 256)
	sim.RunUntil(10 * simclock.Minute)
	for _, s := range []*Service{ora, httpd} {
		b.Run(string(s.Spec.Kind), func(b *testing.B) {
			if r := s.Probe(); !r.OK() {
				b.Fatalf("probe of healthy %s: %v", s.Spec.Name, r)
			}
			b.ReportAllocs()
			for b.Loop() {
				_ = s.Probe()
			}
		})
	}
}
