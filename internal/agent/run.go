package agent

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/notify"
	"repro/internal/simclock"
)

// Run executes one wake-up of the agent: the full five-part lifecycle. It
// is called by the cron wiring (see Schedule and ScheduleOn) and can be
// called directly in tests.
//
// Lifecycle, mirroring §3.3:
//  1. If the host is down, nothing runs (crons don't fire on dead iron).
//  2. Lock check: if another agent of the same type is running, exit.
//  3. Self-maintenance: remove flags from previous runs and old profiles.
//  4. Monitoring: observe the assigned aspect.
//  5. Diagnosing + Self-healing for every fault found.
//  6. Communication/Logging: flags, activity log, reports, escalation.
//
// Observe does steps 3 and 4, and Apply steps 5 and 6 of a run with
// findings. They are the two halves of one serial run, split so that a CPU
// profile can tell monitoring from healing; only Run calls them.
func (a *Agent) Run(sim *simclock.Sim) {
	if !a.host.Up() {
		return
	}
	a.openFiles()
	if a.lock.Exists() {
		a.counters.SkippedLock++
		return
	}
	a.counters.Runs++

	// The agent exists as a process only while awake: spawn, then reap at
	// the end of the run window, charging the CPU it burned. The reaper
	// closure is built once per agent (it reads exitPID at fire time) and
	// posted through the Sim's pooled no-handle path, in the lane of the
	// fixed run window.
	proc := a.host.Spawn(a.procName, "iagent", InstallDir, runCPUDemand, runMemMB)
	if proc == nil {
		return
	}
	a.logBuf = strconv.AppendInt(append(a.logBuf[:0], "pid="...), int64(proc.PID), 10)
	a.lockLine[0] = string(a.logBuf)
	_ = a.lock.WriteLines(a.lockLine[:])
	a.counters.CPUSeconds += runCPUDemand * float64(runDuration) / float64(simclock.Second)
	if a.exitFn == nil {
		a.exitFn = func(simclock.Time) {
			a.host.Kill(a.exitPID)
			_ = a.lock.Remove()
		}
	}
	a.exitPID = proc.PID
	sim.PostFixed(runDuration, a.exitLabel, a.exitFn)

	rc := &a.rc
	*rc = RunContext{
		Now:      sim.Now(),
		Sim:      sim,
		Host:     a.host,
		Services: a.services,
		FS:       a.host.FS,
		Notify:   a.bus,
		Report:   a.report,
		Detected: a.detected,
		Repaired: a.repaired,
		Trace:    a.trace,
		log:      &a.log,
		agent:    a,
	}
	if findings := a.Observe(rc); len(findings) > 0 {
		a.Apply(rc, findings)
	}
}

// Observe is the monitoring half of a run (lifecycle steps 3 and 4). It
// sweeps the previous run's flags and runs the monitor part. A clean run
// ends here: Observe leaves ok.flag, logs the run and reports agent-ok,
// and returns no findings. Only Run calls it.
func (a *Agent) Observe(rc *RunContext) []Finding {
	// Self-maintenance: clear previous-run flags; the circular activity
	// log trims itself. When the previous run verifiably left exactly
	// ok.flag (flagsOK), the sweep has nothing to do — the only flag
	// present is the one an ok run would rewrite.
	cleanOK := a.flagsOK
	if !cleanOK {
		a.clearFlags()
	}

	findings := a.parts.Monitor(rc)
	a.counters.Findings += len(findings)

	if len(findings) == 0 {
		if !cleanOK {
			_ = a.okFlag.WriteLines(nil)
			a.flagsOK = true
		}
		rc.Logf("run ok, no findings")
		if a.report != nil {
			a.report("agent-ok", a.name)
		}
		return nil
	}
	if cleanOK {
		a.dirtyFlags()
	}
	return findings
}

// Apply is the healing half of a run with findings (lifecycle steps 5 and
// 6): it flags and reports each finding, diagnoses them, and heals or
// escalates each diagnosis. Only Run calls it, after Observe.
func (a *Agent) Apply(rc *RunContext, findings []Finding) {
	for _, f := range findings {
		a.writeFlag("fault", sanitize(f.Aspect))
		rc.Logf("finding: %s [%s] %s", f.Aspect, f.Severity, f.Detail)
		if rc.Detected != nil && f.Severity >= SevFault {
			rc.Detected(f.Aspect, rc.Now)
		}
	}

	if a.parts.Diagnose == nil {
		a.escalateAll(rc, findings, "diagnosis disabled")
		return
	}
	diags := a.parts.Diagnose(rc, findings)
	for _, d := range diags {
		rc.Logf("diagnosis: %s -> root cause %q, action %s (confident=%v)",
			d.Finding.Aspect, d.RootCause, d.Action, d.Confident)
		// The diagnose event is the counterfactual anchor: when a replay
		// armed an alternative for exactly this decision, the healing part
		// runs the alternative action instead of the prescription.
		id := rc.Trace.Diagnose(rc.Now, a.name, a.host.Name, d.Finding.Aspect,
			d.Rule, d.RootCause, d.Action, d.Evidence)
		if alt, ok := rc.Trace.Alternative(id); ok {
			d.Action = alt
		}
		if a.parts.Heal == nil {
			a.escalate(rc, d.Finding, "healing disabled: "+d.RootCause)
			continue
		}
		res := a.parts.Heal(rc, d)
		rc.Trace.Heal(rc.Now, a.name, a.host.Name, d.Finding.Aspect,
			res.Action, res.Detail, res.Healed, res.Deferred, res.Escalate)
		if res.Healed {
			a.counters.Healed++
			a.writeFlag("healed", sanitize(d.Finding.Aspect))
			if rc.Repaired != nil && !res.Deferred {
				rc.Repaired(d.Finding.Aspect, rc.Now)
			}
			rc.Logf("healed: %s via %s (%s)", d.Finding.Aspect, res.Action, res.Detail)
			continue
		}
		rc.Logf("heal failed: %s via %s (%s)", d.Finding.Aspect, res.Action, res.Detail)
		if res.Escalate {
			a.escalate(rc, d.Finding, res.Detail)
		}
	}
}

// escalate notifies human administrators that the agent could not resolve a
// fault, per the paper's "if there is a problem they cannot resolve they
// notify human administrators (usually via email or SMS)".
func (a *Agent) escalate(rc *RunContext, f Finding, why string) {
	a.counters.Escalated++
	a.writeFlag("escalated", sanitize(f.Aspect))
	if a.bus == nil {
		return
	}
	for _, admin := range a.admins {
		a.bus.Send(notify.Email, a.name+"@"+a.host.Name, admin,
			fmt.Sprintf("UNRESOLVED %s on %s", f.Aspect, a.host.Name),
			fmt.Sprintf("%s: %s (%s)", f.Detail, why, f.Severity), "agent-escalation")
	}
	if a.report != nil {
		a.report("agent-escalation", fmt.Sprintf("%s|%s|%s", a.host.Name, f.Aspect, why))
	}
}

func (a *Agent) escalateAll(rc *RunContext, findings []Finding, why string) {
	for _, f := range findings {
		a.escalate(rc, f, why)
	}
}

// writeFlag drops a status flag with the naming convention
// <status>[.<detail>].flag in the agent's flag directory.
func (a *Agent) writeFlag(status, detail string) {
	_ = a.host.FS.WriteLines(a.flagDir+"/"+flagName(status, detail), nil)
}

// dirtyFlags leaves the flagsOK fast path: the ok flag the previous run
// left (and this run's skipped sweep preserved) is removed, exactly as the
// sweep would have, before the run writes its real flags.
func (a *Agent) dirtyFlags() {
	a.flagsOK = false
	_ = a.okFlag.Remove()
}

// clearFlags removes previous-run flags (self-maintenance).
func (a *Agent) clearFlags() {
	names, err := a.host.FS.List(a.flagDir)
	if err != nil {
		return
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".flag") {
			_ = a.host.FS.Remove(a.flagDir + "/" + n)
		}
	}
}

// Flags lists the agent's current flag files.
func (a *Agent) Flags() []string {
	names, err := a.host.FS.List(a.flagDir)
	if err != nil {
		return nil
	}
	var out []string
	for _, n := range names {
		if strings.HasSuffix(n, ".flag") {
			out = append(out, n)
		}
	}
	return out
}

// HasFlag reports whether a flag with the given status prefix exists.
func (a *Agent) HasFlag(status string) bool {
	for _, f := range a.Flags() {
		if f == status+".flag" || strings.HasPrefix(f, status+".") {
			return true
		}
	}
	return false
}

// LogLines returns the agent's activity log.
func (a *Agent) LogLines() []string { return a.log.Lines() }

// sanitize makes an aspect safe for a file name. Nearly every aspect that
// reaches a flag write is already clean, so a byte scan decides first and the
// allocating strings.Map rewrite runs only when a byte actually needs
// replacing (any byte outside [a-zA-Z0-9_-], including UTF-8 continuation
// bytes, fails the scan).
func sanitize(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return strings.Map(func(r rune) rune {
				switch {
				case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
					return r
				default:
					return '-'
				}
			}, s)
		}
	}
	return s
}

// Schedule wires the agent to simulated cron: first run phase after now,
// then every period ("awakened every X minutes by local to each host Unix
// crons"), on a repeating event of its own. It returns the ticker so
// scenarios can stop it. Sites dispatch every agent this way unless
// Options.AgentSlots puts them on a shared wheel (ScheduleOn).
func (a *Agent) Schedule(sim *simclock.Sim, phase, period simclock.Time) *simclock.Ticker {
	return sim.Every(sim.Now()+phase, period, "cron:"+a.name, func(simclock.Time) { a.Run(sim) })
}

// ScheduleOn wires the agent's cron onto a shared wheel instead: first run
// phase after now, then every period, in one bucket with every other agent
// on the same instant and period. A bucket runs its agents one after
// another in registration order, each a whole Run, as the crons of hosts
// that wake at one instant would.
func (a *Agent) ScheduleOn(w *simclock.Wheel, phase, period simclock.Time) {
	sim := w.Sim()
	w.Add(sim.Now()+phase, period, "cron:"+a.name, func(simclock.Time) { a.Run(sim) })
}

// QuantizePhase maps a continuous phase draw in [0, period) onto the slot
// grid: with slot width w = period/slots, the draw's slot s = draw/w fires
// at the slot's end (s+1)·w, mirroring the probe engine's layout (first
// fire strictly after now, at most one period out). Each agent still burns
// exactly one phase draw from the deployment RNG stream, so adding slots
// never shifts any other draw. Degenerate grids — a period shorter than the
// slot count — leave the draw unquantized, which costs nothing but
// batching.
func QuantizePhase(draw, period simclock.Time, slots int) simclock.Time {
	w := period / simclock.Time(slots)
	if w <= 0 {
		return draw
	}
	s := draw / w
	if s >= simclock.Time(slots) {
		s = simclock.Time(slots) - 1
	}
	return (s + 1) * w
}
