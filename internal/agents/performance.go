package agents

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/diagnose"
	"repro/internal/fsim"
	"repro/internal/heal"
	"repro/internal/notify"
	"repro/internal/simclock"
)

// PerfLogDir holds the five measurement groups' circular logs, classified
// first by server name and then by measurement group (§3.5).
func PerfLogDir(host string) string { return "/logs/performance/" + host }

const (
	// perfLogLines is the circular-queue length of each measurement file.
	perfLogLines = 1000
	// hogFraction: a process demanding more than this fraction of the
	// host's CPUs is a runaway.
	hogFraction = 0.5
)

// NewPerformanceAgent builds the performance intelliagent for a host: each
// run it samples the operating-system, disk and process measurement groups
// (vmstat/iostat/ps equivalents), appends them to circular-queue ASCII
// logs, compares against the pre-scripted baseline thresholds and notifies
// by email when a threshold is exceeded (§3.5–3.6). Its limited
// troubleshooting capability is exactly what the paper grants it: it can
// identify and kill runaway user processes (CPU hogs and memory leakers);
// anything else it reports.
func NewPerformanceAgent(cfg agent.Config) (*agent.Agent, error) {
	host := cfg.Host
	osBaseline := diagnose.DefaultOSBaseline(host.Model)
	// One circular log per measurement group; each opens its file at its
	// first append. perfLogLines is positive, so NewCircLog cannot fail.
	dir := PerfLogDir(host.Name)
	osLog, _ := fsim.NewCircLog(host.FS, dir+"/os.log", perfLogLines)
	diskLog, _ := fsim.NewCircLog(host.FS, dir+"/disk.log", perfLogLines)
	procLog, _ := fsim.NewCircLog(host.FS, dir+"/procs.log", perfLogLines)

	cfg.Name = "performance-" + host.Name
	cfg.Category = agent.CatPerformance
	admin := cfg.AdminEmail
	var line []byte // the measurement-line buffer, grown on first use

	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			vm := host.VMStat()
			io := host.IOStat()
			// One sorted snapshot of the process table serves the process
			// log and both runaway scans below — ps is the expensive part
			// of this agent's run, so it is taken exactly once.
			ps := host.PS()
			// Measurement groups 1 (OS), 3 (disks), 4/5 (processes),
			// recorded as timestamped ASCII for timeline association. Each
			// line is formatted in the agent's own buffer, so it costs one
			// string.
			line = appendOSLine(line[:0], rc.Now, vm)
			_ = osLog.Append(string(line))
			line = appendDiskLine(line[:0], rc.Now, io)
			_ = diskLog.Append(string(line))
			for _, p := range ps {
				if p.CPUDemand >= 0.5 {
					line = appendProcLine(line[:0], rc.Now, p)
					_ = procLog.Append(string(line))
				}
			}

			var out []agent.Finding
			check := func(aspect string, v float64) {
				if msg, bad := osBaseline.Check(aspect, v); bad {
					sev := agent.SevWarning
					out = append(out, agent.Finding{Aspect: aspect, Severity: sev, Detail: msg, Metric: v})
					if rc.Notify != nil && admin != "" {
						rc.Notify.Send(notify.Email, "performance@"+host.Name, admin,
							"threshold exceeded on "+host.Name, msg, "threshold-exceeded")
					}
				}
			}
			check("memory.scanrate", vm.ScanRate)
			check("memory.pageouts", vm.PageOuts)
			check("memory.freemb", vm.FreeMemMB)
			check("cpu.runqueue", float64(vm.RunQueue))
			check("cpu.idlepct", vm.CPUIdlePct)
			check("io.blocked", float64(vm.BlockedProcs))
			check("disk.asvc", io.AsvcMS)
			check("disk.wsvc", io.WsvcMS)

			// Runaway detection upgrades the generic threshold warnings to
			// an actionable fault with the aspect the registry knows.
			if hog := findRunaway(ps, host, hogFraction); hog != nil {
				out = append(out, agent.Finding{
					Aspect: AspectHog, Severity: agent.SevFault,
					Detail: fmt.Sprintf("runaway process %d (%s) using %.1f CPUs", hog.PID, hog.Name, hog.CPUDemand),
					Metric: float64(hog.PID),
				})
			}
			if leak := findLeaker(ps, host, vm.ScanRate); leak != nil {
				out = append(out, agent.Finding{
					Aspect: AspectLeak, Severity: agent.SevFault,
					Detail: fmt.Sprintf("process %d (%s) holds %.0f MB, memory scanner awake", leak.PID, leak.Name, leak.MemMB),
					Metric: float64(leak.PID),
				})
			}
			return out
		},
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis {
			var out []agent.Diagnosis
			for _, f := range fs {
				switch f.Aspect {
				case AspectHog:
					out = append(out, agent.Diagnosis{Finding: f,
						RootCause: "runaway user process saturating CPUs", Action: "kill-process", Confident: true})
				case AspectLeak:
					out = append(out, agent.Diagnosis{Finding: f,
						RootCause: "leaking process exhausting memory", Action: "kill-process", Confident: true})
				default:
					// Threshold warnings without an identified culprit:
					// suggest what may be wrong, nothing to heal (§3.3:
					// "can suggest what may be wrong during service
					// degradation and have limited troubleshooting
					// capabilities").
				}
			}
			return out
		},
		Heal: func(rc *agent.RunContext, d agent.Diagnosis) agent.HealResult {
			if d.Action != "kill-process" {
				return agent.HealResult{Action: d.Action, Healed: false}
			}
			pid := int(d.Finding.Metric)
			if heal.KillProcess(host, pid) {
				return agent.HealResult{Action: d.Action, Healed: true,
					Detail: fmt.Sprintf("killed pid %d", pid)}
			}
			return agent.HealResult{Action: d.Action, Healed: false, Escalate: true,
				Detail: fmt.Sprintf("pid %d would not die", pid)}
		},
	}
	return agent.New(cfg)
}

// appendOSLine appends measurement group 1's log line, the vmstat sample:
//
//	<now>|sr=%.0f|po=%.0f|free=%.0f|runq=%d|idle=%.1f|blocked=%d
func appendOSLine(b []byte, now simclock.Time, vm cluster.VMStat) []byte {
	b = strconv.AppendInt(b, int64(now), 10)
	b = appendFixed(append(b, "|sr="...), vm.ScanRate, 0)
	b = appendFixed(append(b, "|po="...), vm.PageOuts, 0)
	b = appendFixed(append(b, "|free="...), vm.FreeMemMB, 0)
	b = strconv.AppendInt(append(b, "|runq="...), int64(vm.RunQueue), 10)
	b = appendFixed(append(b, "|idle="...), vm.CPUIdlePct, 1)
	return strconv.AppendInt(append(b, "|blocked="...), int64(vm.BlockedProcs), 10)
}

// appendDiskLine appends measurement group 3's log line, the iostat
// sample:
//
//	<now>|busy=%.0f|asvc=%.1f|wsvc=%.1f
func appendDiskLine(b []byte, now simclock.Time, io cluster.IOStat) []byte {
	b = strconv.AppendInt(b, int64(now), 10)
	b = appendFixed(append(b, "|busy="...), io.BusyPct, 0)
	b = appendFixed(append(b, "|asvc="...), io.AsvcMS, 1)
	return appendFixed(append(b, "|wsvc="...), io.WsvcMS, 1)
}

// appendProcLine appends one busy process's line to measurement groups 4
// and 5, the ps sample:
//
//	<now>|pid=%d|user=%s|cmd=%s|cpu=%.2f|mem=%.0f
func appendProcLine(b []byte, now simclock.Time, p *cluster.Process) []byte {
	b = strconv.AppendInt(b, int64(now), 10)
	b = strconv.AppendInt(append(b, "|pid="...), int64(p.PID), 10)
	b = append(append(b, "|user="...), p.User...)
	b = append(append(b, "|cmd="...), p.Name...)
	b = appendFixed(append(b, "|cpu="...), p.CPUDemand, 2)
	return appendFixed(append(b, "|mem="...), p.MemMB, 0)
}

// fixedScale is 10^prec for the precisions appendFixed takes.
var fixedScale = [...]uint64{1, 10, 100}

// appendFixed appends x with prec (0, 1 or 2) digits after the point,
// byte for byte as strconv.AppendFloat(b, x, 'f', prec, 64), which always
// takes its big-decimal path at a fixed precision. Below 2^53 the value
// is mant·2^-s for integers mant < 2^53 and s ≥ 0, so x·10^prec =
// mant·10^prec·2^-s with mant·10^prec < 2^60: one shift gives its integer
// part and the exact remainder, which rounds half to even, as strconv
// does. NaN, the infinities and |x| ≥ 2^53 go to strconv. The sign is
// printed whenever it is set, so -0 and negatives that round to zero read
// "-0", as strconv prints them.
func appendFixed(b []byte, x float64, prec int) []byte {
	fb := math.Float64bits(x)
	exp := int(fb>>52) & 0x7ff
	if exp >= 1023+53 { // NaN, ±Inf, |x| ≥ 2^53
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	mant := fb & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	s := uint(1075 - exp) // x = mant·2^-s, s ≥ 0
	scale := fixedScale[prec]
	v := mant * scale
	var q uint64
	if s < 61 { // at s ≥ 61, v < 2^60 ≤ half: the value rounds to 0
		q = v >> s
		if s > 0 {
			rem, half := v&(1<<s-1), uint64(1)<<(s-1)
			if rem > half || rem == half && q&1 == 1 {
				q++
			}
		}
	}
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	if prec == 0 {
		return strconv.AppendUint(b, q, 10)
	}
	frac := q % scale
	b = append(strconv.AppendUint(b, q/scale, 10), '.')
	if prec == 2 {
		b = append(b, byte('0'+frac/10))
		frac %= 10
	}
	return append(b, byte('0'+frac))
}

// findRunaway returns the non-service process with the largest CPU demand
// exceeding frac of the host's CPUs, or nil. Service processes (database
// daemons and friends) are never killed by the performance agent. ps is
// the caller's sorted process snapshot.
func findRunaway(ps []*cluster.Process, h *cluster.Host, frac float64) *cluster.Process {
	limit := frac * float64(h.Model.CPUs)
	var worst *cluster.Process
	for _, p := range ps {
		if !userProcess(p) || !p.Active() {
			continue
		}
		if p.CPUDemand > limit && (worst == nil || p.CPUDemand > worst.CPUDemand) {
			worst = p
		}
	}
	return worst
}

// findLeaker returns the biggest non-service memory consumer when the host
// is under real memory pressure (scanner awake, scanRate from the caller's
// vmstat sample), or nil.
func findLeaker(ps []*cluster.Process, h *cluster.Host, scanRate float64) *cluster.Process {
	if scanRate == 0 {
		return nil
	}
	var worst *cluster.Process
	for _, p := range ps {
		if !userProcess(p) {
			continue
		}
		if p.MemMB > 0.25*float64(h.Model.MemoryMB) && (worst == nil || p.MemMB > worst.MemMB) {
			worst = p
		}
	}
	return worst
}

// userProcess reports whether p belongs to an end user rather than a
// managed service or the agents themselves.
func userProcess(p *cluster.Process) bool {
	switch p.User {
	case "oracle", "sybase", "www", "finapp", "lsfadmin", "feeds", "iagent", "root":
		return false
	}
	return true
}
