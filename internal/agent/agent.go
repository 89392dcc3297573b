// Package agent implements the paper's intelliagent framework (§3.3): Unix
// programs, awakened every X minutes by cron, that monitor one
// infrastructure aspect each, diagnose faults with constraint-based causal
// reasoning, repair them where possible, log everything, and maintain
// themselves. Agents are not memory resident — they exist as a short-lived
// process for the duration of each run — and every run leaves flag files
// under /logs/intelliagents/<name> that show what happened and exactly
// where the agent found a fault. Absence of flags means the agent itself is
// broken, which the administration servers watch for.
package agent

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fsim"
	"repro/internal/notify"
	"repro/internal/simclock"
	"repro/internal/svc"
	"repro/internal/trace"
)

// Category classifies an intelliagent by function (§3.3): hardware, OS/
// network, resource, application/service, status and performance agents.
type Category string

// Intelliagent categories.
const (
	CatHardware    Category = "hardware"
	CatOSNetwork   Category = "os-network"
	CatResource    Category = "resource"
	CatService     Category = "service"
	CatStatus      Category = "status"
	CatPerformance Category = "performance"
)

// Severity grades a finding.
type Severity int

// Severities.
const (
	SevInfo Severity = iota
	SevWarning
	SevFault
	SevCritical
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevFault:
		return "fault"
	case SevCritical:
		return "critical"
	}
	return "?"
}

// Finding is something the monitoring part observed to be off-nominal.
type Finding struct {
	Aspect   string // e.g. "memory.scanrate", "service.ORA-01"
	Severity Severity
	Detail   string
	Metric   float64 // the measured value that tripped, if numeric
}

// Diagnosis is the diagnosing part's conclusion about a finding.
type Diagnosis struct {
	Finding   Finding
	RootCause string // e.g. "database crashed mid-job"
	Action    string // prescribed repair, e.g. "restart-service"
	Confident bool   // constraint chain fully satisfied
	// Rule names the causal rule that fired ("" when none matched and the
	// fault is obscure); Evidence carries the diagnosing part's rendered
	// evidence lines when the run's trace asks for them. Both exist for
	// decision traces and change nothing about healing.
	Rule     string
	Evidence []string
}

// HealResult is the outcome of one repair attempt.
type HealResult struct {
	Action   string
	Healed   bool
	Detail   string
	Escalate bool // could not fix: notify human administrators
	// Deferred marks a repair that was initiated but completes later
	// (e.g. a database restart takes minutes); the action itself signals
	// the registry through RunContext.Repaired when it finishes, so the
	// framework must not.
	Deferred bool
}

// RunContext is everything a part may touch during one run. Agents see the
// world only through it, which keeps them testable in isolation.
type RunContext struct {
	Now      simclock.Time
	Sim      *simclock.Sim
	Host     *cluster.Host
	Services *svc.Directory
	FS       *fsim.FS
	Notify   *notify.Bus
	// Report sends a message to the administration servers over the
	// private agent network (may be nil when no admin tier is deployed).
	Report func(kind, payload string)
	// Detected tells the fault registry the agent spotted trouble on this
	// host/aspect (nil when no registry is wired).
	Detected func(aspect string, now simclock.Time)
	// Repaired tells the fault registry a repair completed.
	Repaired func(aspect string, now simclock.Time)
	// Trace records diagnose/heal decision events (nil-safe; nil when the
	// site runs untraced).
	Trace *trace.Recorder
	log   *fsim.CircLog
	agent *Agent
}

// Logf appends a line to the agent's activity log (communication part).
func (rc *RunContext) Logf(format string, args ...any) {
	if rc.log == nil {
		return
	}
	buf := rc.Now.AppendString(rc.agent.logBuf[:0])
	buf = append(buf, ' ')
	buf = append(buf, rc.agent.name...)
	buf = append(buf, ':', ' ')
	if len(args) == 0 && !strings.ContainsRune(format, '%') {
		buf = append(buf, format...)
	} else {
		buf = fmt.Appendf(buf, format, args...)
	}
	rc.agent.logBuf = buf[:0]
	_ = rc.log.Append(string(buf))
}

// Parts are the pluggable halves of the five-part anatomy: monitoring,
// diagnosing and self-healing are agent-specific; communication/logging and
// self-maintenance are provided by the framework around them.
type Parts struct {
	Monitor  func(rc *RunContext) []Finding
	Diagnose func(rc *RunContext, fs []Finding) []Diagnosis
	Heal     func(rc *RunContext, d Diagnosis) HealResult
}

// Overhead is the agent's resource footprint while awake; the paper's
// Figures 3 and 4 measure exactly this against BMC Patrol.
type Overhead struct {
	RunDuration simclock.Time // how long one run keeps a process alive
	CPUDemand   float64       // CPUs-worth while running
	MemMB       float64       // resident memory while running
}

// Every agent's footprint, from the paper's measurements: ~1.6 MB resident
// while awake, and a CPU cost calibrated so a host's typical five-agent
// complement averages ~0.045% of an 8-CPU system over a half-hour window
// (5 agents x 6 runs x 0.216 CPU-s per run / (1800 s x 8 CPUs) ≈ 0.045%).
const (
	runDuration  = 4 * simclock.Second
	runCPUDemand = 0.054
	runMemMB     = 1.6
)

// logLines caps each agent's circular activity log.
const logLines = 500

// Counters accumulate over an agent's life for reports.
type Counters struct {
	Runs        int
	SkippedLock int
	Findings    int
	Healed      int
	Escalated   int
	CPUSeconds  float64 // total CPU-seconds consumed (for overhead figures)
}

// Agent is one installed intelliagent.
type Agent struct {
	name     string
	category Category
	host     *cluster.Host
	services *svc.Directory
	bus      *notify.Bus
	parts    Parts

	flagDir   string
	lockPath  string
	log       fsim.CircLog // the activity log; its first append opens it
	procName  string       // process name while awake, "intelliagent_<name>"
	exitLabel string       // event label of the end-of-run reaper

	// lock and okFlag are handles on the lock file and on ok.flag in the
	// flag directory. openFiles opens them in the agent's first run, never
	// at construction (it would slow site set-up).
	lock, okFlag fsim.File

	report   func(kind, payload string)
	detected func(aspect string, now simclock.Time)
	repaired func(aspect string, now simclock.Time)
	trace    *trace.Recorder

	counters Counters
	admins   []string

	// Hot-loop scratch state. rc is the reusable run context handed to the
	// parts each run (parts must not retain it past the run, which none
	// do); logBuf backs the formatting of Logf's lines and of the lock
	// line; lockLine backs the lock file write; exitFn is the
	// preallocated end-of-run reaper; flagsOK records that the flag
	// directory holds exactly ok.flag — the self-maintenance fast path: an
	// ok run following an ok run leaves the flag state byte-identical, so
	// neither the sweep nor the rewrite needs to touch the filesystem.
	rc       RunContext
	logBuf   []byte
	lockLine [1]string
	exitFn   func(simclock.Time)
	exitPID  int
	flagsOK  bool
}

// InstallDir is where every intelliagent lives, per the paper ("always in
// the same physical location /apps/intelliagents").
const InstallDir = "/apps/intelliagents"

// FlagRoot is the per-agent flag directory root.
const FlagRoot = "/logs/intelliagents"

// Config assembles an agent.
type Config struct {
	Name     string
	Category Category
	Host     *cluster.Host
	Services *svc.Directory
	Notify   *notify.Bus
	Parts    Parts
	// Report/Detected/Repaired hooks; any may be nil.
	Report   func(kind, payload string)
	Detected func(aspect string, now simclock.Time)
	Repaired func(aspect string, now simclock.Time)
	// Trace records the agent's diagnose/heal decisions (nil = untraced).
	Trace *trace.Recorder
	// AdminEmail receives escalations.
	AdminEmail string
}

// New installs an intelliagent on its host.
func New(cfg Config) (*Agent, error) {
	if cfg.Name == "" || cfg.Host == nil {
		return nil, fmt.Errorf("agent: name and host are required")
	}
	if cfg.Parts.Monitor == nil {
		return nil, fmt.Errorf("agent: %s: monitoring part is required", cfg.Name)
	}
	a := &Agent{
		name:      cfg.Name,
		category:  cfg.Category,
		host:      cfg.Host,
		services:  cfg.Services,
		bus:       cfg.Notify,
		parts:     cfg.Parts,
		flagDir:   FlagRoot + "/" + cfg.Name,
		lockPath:  InstallDir + "/" + cfg.Name + ".lock",
		procName:  "intelliagent_" + cfg.Name,
		exitLabel: "agent-exit:" + cfg.Name,
		report:    cfg.Report,
		detected:  cfg.Detected,
		repaired:  cfg.Repaired,
		trace:     cfg.Trace,
	}
	if cfg.AdminEmail != "" {
		a.admins = append(a.admins, cfg.AdminEmail)
	}
	var err error
	a.log, err = fsim.NewCircLog(cfg.Host.FS, a.flagDir+"/activity.log", logLines)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// openFiles opens the agent's lock and ok-flag handles if it has not yet,
// and pins the host's process-count cell for the agent's process name, so
// that a run's spawn and reap find the cell in place instead of adding it
// to the host's index and dropping it again. The agent's first run calls
// it.
func (a *Agent) openFiles() {
	if a.lock != (fsim.File{}) {
		return
	}
	a.lock = a.host.FS.Open(a.lockPath)
	a.okFlag = a.host.FS.Open(a.flagDir + "/ok.flag")
	a.host.PinTally(a.procName)
}

// Name reports the agent's name.
func (a *Agent) Name() string { return a.name }

// Category reports the agent's category.
func (a *Agent) Category() Category { return a.category }

// Host reports the host the agent is installed on.
func (a *Agent) Host() *cluster.Host { return a.host }

// Counters returns a copy of the lifetime counters.
func (a *Agent) Counters() Counters { return a.counters }

// Overhead returns the agent's footprint while awake.
func (a *Agent) Overhead() Overhead {
	return Overhead{RunDuration: runDuration, CPUDemand: runCPUDemand, MemMB: runMemMB}
}

// flagName builds a conventional flag file name.
func flagName(status, detail string) string {
	if detail == "" {
		return status + ".flag"
	}
	return status + "." + detail + ".flag"
}
