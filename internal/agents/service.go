// Package agents provides the concrete intelliagents of §3.3's taxonomy:
// application/service agents (one per service, with per-application error
// categories), a status agent (DLSP generation), performance agents (the
// five measurement groups, thresholds and circular logs), resource agents
// for CPU/memory/disk, an OS/network agent and a hardware agent.
package agents

import (
	"repro/internal/agent"
	"repro/internal/diagnose"
	"repro/internal/heal"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// Aspect naming: the scenario's fault registry and the agents must agree on
// these strings for detections to match incidents.
func ServiceAspect(name string) string { return "service." + name }

// Aspect constants shared with the fault registry.
const (
	AspectHog    = "perf.hog"
	AspectLeak   = "perf.leak"
	AspectNet    = "net.link"
	AspectSensor = "hardware.sensor"
)

// serviceRules builds the per-application-kind diagnostic rule set. The
// error categories are customised per application type (§3.3): databases
// distinguish mid-job crashes; every kind distinguishes crashed vs hung vs
// partially-failed vs overloaded.
func serviceRules(kind svc.Kind) *diagnose.Engine {
	crashCause := "service crashed"
	if kind == svc.KindOracle || kind == svc.KindSybase {
		crashCause = "database crashed (possibly mid-job)"
	}
	return diagnose.NewEngine(
		diagnose.Rule{
			Name: "wedged", Priority: 50,
			When:   func(e *diagnose.Evidence) bool { return e.Holds("wedged") },
			Cause:  "corrupted installation or datafiles",
			Action: "manual-repair",
		},
		diagnose.Rule{
			Name: "host-down", Priority: 40,
			When:   func(e *diagnose.Evidence) bool { return e.Holds("host-down") },
			Cause:  "server unreachable",
			Action: "none",
		},
		diagnose.Rule{
			Name: "crashed", Priority: 30,
			When: func(e *diagnose.Evidence) bool {
				return e.Holds("refused") && !e.Holds("procs-present")
			},
			Cause:  crashCause,
			Action: "restart-service",
		},
		diagnose.Rule{
			Name: "hung", Priority: 25,
			When: func(e *diagnose.Evidence) bool {
				return e.Holds("timeout") && e.Holds("procs-hung")
			},
			Cause:  "service hung (latent error)",
			Action: "kill-and-restart",
		},
		diagnose.Rule{
			Name: "partial", Priority: 20,
			When:   func(e *diagnose.Evidence) bool { return e.Holds("missing-components") },
			Cause:  "application component died",
			Action: "restart-service",
		},
		diagnose.Rule{
			Name: "overloaded", Priority: 10,
			When: func(e *diagnose.Evidence) bool {
				return e.Holds("timeout") && e.Above("host-util", 0.9)
			},
			Cause:  "server overloaded, responses exceed timeout",
			Action: "defer-to-performance",
		},
		diagnose.Rule{
			Name: "listener-only", Priority: 5,
			When:   func(e *diagnose.Evidence) bool { return e.Holds("refused") },
			Cause:  "listener gone while processes remain",
			Action: "kill-and-restart",
		},
	)
}

// NewServiceAgent builds the application/service intelliagent for one
// service instance. It probes the service the way the paper prescribes
// (connect and run a basic command), diagnoses the exit code plus process-
// table evidence against per-kind rules, and restarts the service in
// dependency order when that is the prescribed action. Restarts are
// deferred repairs: the registry hears about them when the service is
// actually serving again.
func NewServiceAgent(cfg agent.Config, s *svc.Service) (*agent.Agent, error) {
	rules := serviceRules(s.Spec.Kind)
	aspect := ServiceAspect(s.Spec.Name)
	cfg.Name = "service-" + s.Spec.Name
	cfg.Host = s.Host

	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			res := s.Probe()
			if res.OK() {
				return nil
			}
			sev := agent.SevFault
			if s.State() == svc.StateCrashed || s.Wedged {
				sev = agent.SevCritical
			}
			return []agent.Finding{{
				Aspect:   aspect,
				Severity: sev,
				Detail:   res.Detail,
				Metric:   float64(res.ExitCode),
			}}
		},
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis {
			var out []agent.Diagnosis
			for _, f := range fs {
				ev := gatherServiceEvidence(s, int(f.Metric))
				conc, ok := rules.Diagnose(ev)
				var lines []string
				if rc.Trace.WantEvidence() {
					lines = ev.Lines()
				}
				if !ok {
					out = append(out, agent.Diagnosis{Finding: f, RootCause: "obscure error", Action: "escalate",
						Evidence: lines})
					continue
				}
				out = append(out, agent.Diagnosis{
					Finding: f, RootCause: conc.Cause, Action: conc.Action, Confident: true,
					Rule: conc.Rule, Evidence: lines,
				})
			}
			return out
		},
		Heal: func(rc *agent.RunContext, d agent.Diagnosis) agent.HealResult {
			switch d.Action {
			case "restart-service", "kill-and-restart":
				aspect := d.Finding.Aspect
				repaired := rc.Repaired
				err := heal.RestartStack(rc.Sim, rc.Services, s, func(now simclock.Time) {
					if repaired != nil {
						repaired(aspect, now)
					}
				})
				if err != nil {
					return agent.HealResult{Action: d.Action, Healed: false, Escalate: true,
						Detail: err.Error()}
				}
				return agent.HealResult{Action: d.Action, Healed: true, Deferred: true,
					Detail: "restart initiated, service back after startup sequence"}
			case "reboot-host":
				// No diagnostic rule prescribes a reboot — this is the
				// heavy-handed alternative counterfactual replays explore:
				// bounce the whole host and bring every service on it back.
				aspect := d.Finding.Aspect
				repaired := rc.Repaired
				heal.RebootHost(rc.Sim, rc.Host, 5*simclock.Minute, rc.Services.OnHost(rc.Host.Name),
					func(now simclock.Time) {
						if repaired != nil {
							repaired(aspect, now)
						}
					})
				return agent.HealResult{Action: d.Action, Healed: true, Deferred: true,
					Detail: "host reboot initiated, services restart after boot"}
			case "defer-to-performance":
				return agent.HealResult{Action: d.Action, Healed: false,
					Detail: "load problem, performance agent owns it"}
			case "manual-repair":
				return agent.HealResult{Action: d.Action, Healed: false, Escalate: true,
					Detail: "corruption needs human repair"}
			case "none":
				return agent.HealResult{Action: d.Action, Healed: false,
					Detail: "host down, nothing to do locally"}
			default:
				return agent.HealResult{Action: d.Action, Healed: false, Escalate: true,
					Detail: "no prescribed scenario for root cause: " + d.RootCause}
			}
		},
	}
	return agent.New(cfg)
}

// gatherServiceEvidence is the diagnosing part's two-pronged evidence
// collection: dynamically from the process table and host state, statically
// from the service's advertised condition.
func gatherServiceEvidence(s *svc.Service, exitCode int) *diagnose.Evidence {
	ev := diagnose.NewEvidence()
	ev.Fact("refused", exitCode == svc.ExitRefused)
	ev.Fact("timeout", exitCode == svc.ExitTimeout)
	ev.Fact("cmd-error", exitCode == svc.ExitError)
	ev.Fact("host-down", !s.Host.Up())
	ev.Fact("wedged", s.Wedged)
	ev.Observe("host-util", s.Host.CPUUtilisation())

	present, hung := s.ProcCounts()
	ev.Fact("procs-present", present > 0)
	ev.Fact("procs-hung", hung > 0)
	ev.Fact("missing-components", exitCode == svc.ExitError && len(s.MissingProcs()) > 0)
	ev.Note("exit=%d present=%d hung=%d", exitCode, present, hung)
	return ev
}
