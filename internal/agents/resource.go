package agents

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/diagnose"
	"repro/internal/heal"
)

// The resource intelliagents: one special agent per component, as the paper
// deploys them ("for each component there is one special intelliagent, such
// as one for the CPU, one for the network card etc"). They overlap with the
// performance agent's measurement groups deliberately — the paper's agents
// run in parallel and do not depend on each other — but each owns the
// repair of its own component.

// NewCPUAgent watches the run queue and idle time (§3.6 measurements 2–3)
// and kills runaway processes when the CPU constraint trips.
func NewCPUAgent(cfg agent.Config) (*agent.Agent, error) {
	host := cfg.Host
	b := diagnose.DefaultOSBaseline(host.Model)
	cfg.Name = "cpu-" + host.Name
	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			vm := host.VMStat()
			var out []agent.Finding
			if msg, bad := b.Check("cpu.runqueue", float64(vm.RunQueue)); bad {
				out = append(out, agent.Finding{Aspect: "cpu.runqueue", Severity: agent.SevWarning, Detail: msg, Metric: float64(vm.RunQueue)})
			}
			if msg, bad := b.Check("cpu.idlepct", vm.CPUIdlePct); bad {
				out = append(out, agent.Finding{Aspect: "cpu.idlepct", Severity: agent.SevWarning, Detail: msg, Metric: vm.CPUIdlePct})
			}
			if len(out) > 0 {
				if hog := findRunaway(host.PS(), host, hogFraction); hog != nil {
					out = append(out, agent.Finding{Aspect: AspectHog, Severity: agent.SevFault,
						Detail: fmt.Sprintf("runaway pid %d (%s)", hog.PID, hog.Name), Metric: float64(hog.PID)})
				}
			}
			return out
		},
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis {
			var out []agent.Diagnosis
			for _, f := range fs {
				if f.Aspect == AspectHog {
					out = append(out, agent.Diagnosis{Finding: f, RootCause: "runaway process", Action: "kill-process", Confident: true})
				}
			}
			return out
		},
		Heal: killProcessHeal(cfg),
	}
	return agent.New(cfg)
}

// NewMemoryAgent watches scan rate, page-outs and free memory (§3.6
// measurement 1) and kills the leaking process when pressure has an
// identifiable culprit.
func NewMemoryAgent(cfg agent.Config) (*agent.Agent, error) {
	host := cfg.Host
	b := diagnose.DefaultOSBaseline(host.Model)
	cfg.Name = "memory-" + host.Name
	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			vm := host.VMStat()
			var out []agent.Finding
			// Fixed check order: ranging a map literal here would make the
			// finding order (and so the flag/log trail) nondeterministic.
			for _, c := range [...]struct {
				aspect string
				v      float64
			}{
				{"memory.scanrate", vm.ScanRate},
				{"memory.pageouts", vm.PageOuts},
				{"memory.freemb", vm.FreeMemMB},
			} {
				if msg, bad := b.Check(c.aspect, c.v); bad {
					out = append(out, agent.Finding{Aspect: c.aspect, Severity: agent.SevWarning, Detail: msg, Metric: c.v})
				}
			}
			if len(out) > 0 {
				if leak := findLeaker(host.PS(), host, vm.ScanRate); leak != nil {
					out = append(out, agent.Finding{Aspect: AspectLeak, Severity: agent.SevFault,
						Detail: fmt.Sprintf("leaking pid %d (%s) holds %.0f MB", leak.PID, leak.Name, leak.MemMB), Metric: float64(leak.PID)})
				}
			}
			return out
		},
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis {
			var out []agent.Diagnosis
			for _, f := range fs {
				if f.Aspect == AspectLeak {
					out = append(out, agent.Diagnosis{Finding: f, RootCause: "memory leak", Action: "kill-process", Confident: true})
				}
			}
			return out
		},
		Heal: killProcessHeal(cfg),
	}
	return agent.New(cfg)
}

// NewDiskAgent watches service times (§3.6 measurement 6). Disks it cannot
// fix; sustained saturation is reported for human capacity planning, so its
// findings stay warnings unless a runaway I/O producer is identifiable.
func NewDiskAgent(cfg agent.Config) (*agent.Agent, error) {
	host := cfg.Host
	b := diagnose.DefaultOSBaseline(host.Model)
	cfg.Name = "disk-" + host.Name
	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			io := host.IOStat()
			var out []agent.Finding
			if msg, bad := b.Check("disk.asvc", io.AsvcMS); bad {
				out = append(out, agent.Finding{Aspect: "disk.asvc", Severity: agent.SevWarning, Detail: msg, Metric: io.AsvcMS})
			}
			if msg, bad := b.Check("disk.wsvc", io.WsvcMS); bad {
				out = append(out, agent.Finding{Aspect: "disk.wsvc", Severity: agent.SevWarning, Detail: msg, Metric: io.WsvcMS})
			}
			return out
		},
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis { return nil },
	}
	return agent.New(cfg)
}

// killProcessHeal builds the shared kill-the-culprit healing part.
func killProcessHeal(cfg agent.Config) func(rc *agent.RunContext, d agent.Diagnosis) agent.HealResult {
	host := cfg.Host
	return func(rc *agent.RunContext, d agent.Diagnosis) agent.HealResult {
		if d.Action != "kill-process" {
			return agent.HealResult{Action: d.Action, Healed: false}
		}
		pid := int(d.Finding.Metric)
		if heal.KillProcess(host, pid) {
			return agent.HealResult{Action: d.Action, Healed: true, Detail: fmt.Sprintf("killed pid %d", pid)}
		}
		return agent.HealResult{Action: d.Action, Healed: false, Escalate: true,
			Detail: fmt.Sprintf("pid %d not found", pid)}
	}
}
