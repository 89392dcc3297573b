package agent

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/notify"
	"repro/internal/simclock"
	"repro/internal/svc"
)

type rig struct {
	sim  *simclock.Sim
	host *cluster.Host
	bus  *notify.Bus
	dir  *svc.Directory
}

func newRig() *rig {
	sim := simclock.New(3)
	return &rig{
		sim:  sim,
		host: cluster.NewHost(sim, "db001", "10.0.0.1", cluster.ModelE4500, cluster.RoleDatabase, "london", "UK"),
		bus:  notify.NewBus(),
		dir:  svc.NewDirectory(),
	}
}

func (r *rig) agent(t testing.TB, cfg Config) *Agent {
	t.Helper()
	cfg.Host = r.host
	cfg.Notify = r.bus
	cfg.Services = r.dir
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func okParts() Parts {
	return Parts{Monitor: func(rc *RunContext) []Finding { return nil }}
}

func faultParts(healOK bool) Parts {
	return Parts{
		Monitor: func(rc *RunContext) []Finding {
			return []Finding{{Aspect: "service.ORA-01", Severity: SevFault, Detail: "probe refused"}}
		},
		Diagnose: func(rc *RunContext, fs []Finding) []Diagnosis {
			var out []Diagnosis
			for _, f := range fs {
				out = append(out, Diagnosis{Finding: f, RootCause: "crashed", Action: "restart-service", Confident: true})
			}
			return out
		},
		Heal: func(rc *RunContext, d Diagnosis) HealResult {
			if healOK {
				return HealResult{Action: d.Action, Healed: true, Detail: "restarted"}
			}
			return HealResult{Action: d.Action, Healed: false, Detail: "restart failed", Escalate: true}
		},
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig()
	if _, err := New(Config{Name: "", Host: r.host, Parts: okParts()}); err == nil {
		t.Error("missing name should fail")
	}
	if _, err := New(Config{Name: "x", Host: r.host}); err == nil {
		t.Error("missing monitor part should fail")
	}
}

func TestCleanRunWritesOKFlag(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{Name: "cpu", Parts: okParts()})
	a.Run(r.sim)
	if !a.HasFlag("ok") {
		t.Errorf("flags = %v", a.Flags())
	}
	if c := a.Counters(); c.Runs != 1 || c.Findings != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestAgentIsNotMemoryResident(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{Name: "cpu", Parts: okParts()})
	a.Run(r.sim)
	if got := r.host.PGrep("intelliagent_cpu"); len(got) != 1 {
		t.Fatal("agent process should exist during the run window")
	}
	r.sim.RunUntil(r.sim.Now() + simclock.Minute)
	if got := r.host.PGrep("intelliagent_cpu"); len(got) != 0 {
		t.Error("agent process should exit after the run window")
	}
	if a.lock.Exists() {
		t.Error("lock should be released")
	}
}

func TestDuplicateRunSkipsViaLock(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{Name: "backup", Parts: okParts()})
	a.Run(r.sim)
	a.Run(r.sim) // lock still held: run window has not elapsed
	c := a.Counters()
	if c.Runs != 1 || c.SkippedLock != 1 {
		t.Errorf("counters = %+v", c)
	}
	r.sim.RunUntil(r.sim.Now() + simclock.Minute)
	a.Run(r.sim)
	if a.Counters().Runs != 2 {
		t.Error("run after lock release should proceed")
	}
}

func TestDownHostNoRun(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{Name: "cpu", Parts: okParts()})
	r.host.Crash()
	a.Run(r.sim)
	if a.Counters().Runs != 0 {
		t.Error("agents cannot run on a dead host")
	}
}

func TestFaultFlagsAndHeal(t *testing.T) {
	r := newRig()
	var detected, repaired []string
	a := r.agent(t, Config{
		Name: "service-ORA-01", Parts: faultParts(true),
		Detected: func(aspect string, _ simclock.Time) { detected = append(detected, aspect) },
		Repaired: func(aspect string, _ simclock.Time) { repaired = append(repaired, aspect) },
	})
	a.Run(r.sim)
	if !a.HasFlag("fault") || !a.HasFlag("healed") {
		t.Errorf("flags = %v", a.Flags())
	}
	if a.HasFlag("ok") {
		t.Error("fault run must not write ok flag")
	}
	if len(detected) != 1 || detected[0] != "service.ORA-01" {
		t.Errorf("detected = %v", detected)
	}
	if len(repaired) != 1 {
		t.Errorf("repaired = %v", repaired)
	}
	c := a.Counters()
	if c.Findings != 1 || c.Healed != 1 || c.Escalated != 0 {
		t.Errorf("counters = %+v", c)
	}
	logText := strings.Join(a.LogLines(), "\n")
	for _, want := range []string{"finding:", "diagnosis:", "healed:"} {
		if !strings.Contains(logText, want) {
			t.Errorf("activity log missing %q:\n%s", want, logText)
		}
	}
}

func TestHealFailureEscalates(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{
		Name: "service-ORA-01", Parts: faultParts(false),
		AdminEmail: "oncall@site",
	})
	a.Run(r.sim)
	if !a.HasFlag("escalated") {
		t.Errorf("flags = %v", a.Flags())
	}
	if a.Counters().Escalated != 1 {
		t.Errorf("counters = %+v", a.Counters())
	}
	if r.bus.CountByTag("agent-escalation") != 1 || len(r.bus.History()) != 1 {
		t.Errorf("notifications = %v, want one agent-escalation", r.bus.History())
	}
	// With no admin address, the agent escalates without an email.
	quiet := r.agent(t, Config{Name: "service-ORA-02", Parts: faultParts(false)})
	quiet.Run(r.sim)
	if quiet.Counters().Escalated != 1 || len(r.bus.History()) != 1 {
		t.Errorf("escalated %d times, notifications %v: want one escalation and no new email",
			quiet.Counters().Escalated, r.bus.History())
	}
}

func TestSelfMaintenanceClearsOldFlags(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{Name: "cpu", Parts: faultParts(true)})
	a.Run(r.sim)
	if !a.HasFlag("fault") {
		t.Fatal("precondition: fault flag")
	}
	r.sim.RunUntil(r.sim.Now() + simclock.Minute)
	// Next run is clean: the Monitor below observes nothing. Swap parts by
	// installing a second agent with the same name/flag dir.
	b := r.agent(t, Config{Name: "cpu", Parts: okParts()})
	b.Run(r.sim)
	if b.HasFlag("fault") {
		t.Errorf("stale fault flag survived self-maintenance: %v", b.Flags())
	}
	if !b.HasFlag("ok") {
		t.Errorf("flags = %v", b.Flags())
	}
}

// TestDisabledParts: an agent installed without a diagnosing or a healing
// part escalates every fault it finds instead of acting on it — by email
// to its administrators, with an escalated flag — and heals nothing.
func TestDisabledParts(t *testing.T) {
	noHeal := faultParts(true)
	noHeal.Heal = nil
	noDiagnose := faultParts(true)
	noDiagnose.Diagnose = nil
	for _, c := range []struct {
		name  string
		parts Parts
		why   string
	}{
		{"no-heal", noHeal, "healing disabled: crashed"},
		{"no-diagnose", noDiagnose, "diagnosis disabled"},
	} {
		r := newRig()
		var reports []string
		a := r.agent(t, Config{Name: "x", Parts: c.parts, AdminEmail: "ops@site",
			Report: func(kind, payload string) { reports = append(reports, kind+" "+payload) }})
		a.Run(r.sim)
		if got := a.Counters(); got.Findings != 1 || got.Healed != 0 || got.Escalated != 1 {
			t.Errorf("%s: counters = %+v, want 1 finding, 0 healed, 1 escalated", c.name, got)
		}
		if !a.HasFlag("escalated") || a.HasFlag("healed") {
			t.Errorf("%s: flags = %v", c.name, a.Flags())
		}
		if r.bus.CountByTag("agent-escalation") != 1 {
			t.Fatalf("%s: %d escalation emails, want 1", c.name, r.bus.CountByTag("agent-escalation"))
		}
		if len(reports) == 0 || !strings.HasPrefix(reports[0], "agent-escalation ") || !strings.Contains(reports[0], c.why) {
			t.Errorf("%s: reports %q, want an agent-escalation report giving %q", c.name, reports, c.why)
		}
	}
}

func TestReportHook(t *testing.T) {
	r := newRig()
	var kinds []string
	a := r.agent(t, Config{Name: "cpu", Parts: okParts(),
		Report: func(kind, payload string) { kinds = append(kinds, kind) }})
	a.Run(r.sim)
	if len(kinds) != 1 || kinds[0] != "agent-ok" {
		t.Errorf("reports = %v", kinds)
	}
}

func TestScheduleCron(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{Name: "cpu", Parts: okParts()})
	a.Schedule(r.sim, 0, 5*simclock.Minute)
	r.sim.RunUntil(30 * simclock.Minute)
	if got := a.Counters().Runs; got != 7 { // t=0,5,...,30
		t.Errorf("runs = %d, want 7", got)
	}
}

func TestCPUSecondsAccounting(t *testing.T) {
	r := newRig()
	a := r.agent(t, Config{Name: "cpu", Parts: okParts()})
	a.Schedule(r.sim, 0, 5*simclock.Minute)
	r.sim.RunUntil(30 * simclock.Minute)
	// 7 runs x 0.054 CPU x 4 s = 1.512 CPU-seconds.
	got := a.Counters().CPUSeconds
	if got < 1.51 || got > 1.52 {
		t.Errorf("CPUSeconds = %v, want 1.512", got)
	}
}

func TestSeverityBelowFaultNotDetected(t *testing.T) {
	r := newRig()
	var detected []string
	parts := Parts{
		Monitor: func(rc *RunContext) []Finding {
			return []Finding{{Aspect: "cpu.idle", Severity: SevWarning, Detail: "slightly busy"}}
		},
		Diagnose: func(rc *RunContext, fs []Finding) []Diagnosis { return nil },
	}
	a := r.agent(t, Config{Name: "cpu", Parts: parts,
		Detected: func(aspect string, _ simclock.Time) { detected = append(detected, aspect) }})
	a.Run(r.sim)
	if len(detected) != 0 {
		t.Errorf("warnings must not count as fault detections: %v", detected)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("service.ORA-01/x y"); got != "service-ORA-01-x-y" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestFlagNaming(t *testing.T) {
	if flagName("ok", "") != "ok.flag" || flagName("fault", "svc") != "fault.svc.flag" {
		t.Error("flag naming convention broken")
	}
}

// warmOKAgent returns a rig and an ok agent that has run, and been reaped,
// a few times: the host's process slots, the agent's file slots and its
// buffers have settled.
func warmOKAgent(tb testing.TB) (*rig, *Agent) {
	r := newRig()
	a := r.agent(tb, Config{Name: "cpu", Parts: okParts()})
	for i := 0; i < 5; i++ {
		okRun(r, a)
	}
	return r, a
}

// okRun is one cron wake-up of an ok agent and its reaper: the run spawns
// the agent's process, writes its lock and logs one line, and the reaper,
// a run window later, kills the process and removes the lock.
func okRun(r *rig, a *Agent) {
	a.Run(r.sim)
	r.sim.RunUntil(r.sim.Now() + simclock.Minute)
}

// TestOKRunAllocs: on a warm host, an ok run plus its reaper allocates
// exactly two strings, the lock line and the activity-log line. The
// process, the lock's and the log's file slots, the reaper and the event
// that carries it are all reused.
func TestOKRunAllocs(t *testing.T) {
	r, a := warmOKAgent(t)
	before := a.Counters()
	if allocs := testing.AllocsPerRun(200, func() { okRun(r, a) }); allocs != 2 {
		t.Errorf("ok run plus reaper: %v allocs, want 2", allocs)
	}
	if c := a.Counters(); c.Runs-before.Runs != 201 || c.SkippedLock != 0 || c.Findings != 0 {
		t.Errorf("counters moved from %+v to %+v, want 201 clean runs", before, c)
	}
	if r.host.NProcs() != 0 || a.lock.Exists() {
		t.Error("a reaped run left its process or its lock behind")
	}
}

// BenchmarkAgentRun times one ok agent run plus its reaper on a warm host:
// the framework's per-run cost (process spawn and reap, lock write and
// removal, one activity-log line) with a monitor that finds nothing.
func BenchmarkAgentRun(b *testing.B) {
	r, a := warmOKAgent(b)
	b.ReportAllocs()
	for b.Loop() {
		okRun(r, a)
	}
}
