package agents

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/diagnose"
	"repro/internal/netsim"
)

// NewNetworkAgent builds the OS/network intelliagent: it samples netstat
// counters and checks the host's links on the attached networks (§3.6
// network measurements). The paper is explicit that its approach "cannot
// cater for network or obscure logical errors" — so this agent detects
// firewall/network faults fast and escalates them to humans; it never
// repairs them itself. It does handle the one network action the agents do
// perform: noticing the private intelliagent network is unusable (the
// Router fails over automatically; the agent records that it happened).
func NewNetworkAgent(cfg agent.Config, nets ...*netsim.Network) (*agent.Agent, error) {
	host := cfg.Host
	b := diagnose.DefaultNetBaseline()
	cfg.Name = "network-" + host.Name
	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			nicErrors := float64(host.NICErrors())
			var out []agent.Finding
			if msg, bad := b.Check("net.errors", nicErrors); bad {
				out = append(out, agent.Finding{Aspect: AspectNet, Severity: agent.SevFault,
					Detail: "interface errors: " + msg, Metric: nicErrors})
			}
			for _, n := range nets {
				if n.Attached(host.Name) && !n.LinkUp(host.Name) {
					out = append(out, agent.Finding{Aspect: AspectNet, Severity: agent.SevFault,
						Detail: fmt.Sprintf("link down on network %s", n.Name())})
				} else if !n.Up() {
					out = append(out, agent.Finding{Aspect: "net.fabric." + n.Name(), Severity: agent.SevWarning,
						Detail: fmt.Sprintf("network %s fabric down, traffic rerouting", n.Name())})
				}
			}
			return out
		},
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis {
			var out []agent.Diagnosis
			for _, f := range fs {
				if f.Severity >= agent.SevFault {
					out = append(out, agent.Diagnosis{Finding: f,
						RootCause: "firewall/network error", Action: "escalate-network", Confident: false})
				}
			}
			return out
		},
		Heal: func(rc *agent.RunContext, d agent.Diagnosis) agent.HealResult {
			return agent.HealResult{Action: d.Action, Healed: false, Escalate: true,
				Detail: "network faults need manual input (paper §5 limitation)"}
		},
	}
	return agent.New(cfg)
}

// NewHardwareAgent builds the hardware intelliagent: it reads the service
// processor's sensor faults (ECC, fans, boards). Hardware it cannot fix —
// detection buys the hours, engineers do the repair.
func NewHardwareAgent(cfg agent.Config) (*agent.Agent, error) {
	host := cfg.Host
	cfg.Name = "hardware-" + host.Name
	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			var out []agent.Finding
			for _, comp := range host.SensorFaults() {
				out = append(out, agent.Finding{Aspect: AspectSensor, Severity: agent.SevFault,
					Detail: "degraded component: " + comp})
			}
			return out
		},
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis {
			var out []agent.Diagnosis
			for _, f := range fs {
				out = append(out, agent.Diagnosis{Finding: f,
					RootCause: "hardware component failure", Action: "escalate-hardware", Confident: true})
			}
			return out
		},
		Heal: func(rc *agent.RunContext, d agent.Diagnosis) agent.HealResult {
			return agent.HealResult{Action: d.Action, Healed: false, Escalate: true,
				Detail: "physical repair required"}
		},
	}
	return agent.New(cfg)
}
