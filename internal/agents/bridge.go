package agents

import (
	"repro/internal/faultinject"
	"repro/internal/simclock"
)

// RegistryBridge adapts a faultinject.Registry to the agent framework's
// Detected/Repaired hooks, crediting "intelliagent" in the ledger. One
// bridge serves the whole deployment; hooks are minted per host.
type RegistryBridge struct {
	Reg *faultinject.Registry
}

// Detected returns the detection hook for agents installed on host.
func (b *RegistryBridge) Detected(host string) func(aspect string, now simclock.Time) {
	return func(aspect string, now simclock.Time) {
		b.Reg.Detected(host, aspect, now, "intelliagent")
	}
}

// Repaired returns the repair hook for agents installed on host.
func (b *RegistryBridge) Repaired(host string) func(aspect string, now simclock.Time) {
	return func(aspect string, now simclock.Time) {
		b.Reg.Resolve(host, aspect, now, "intelliagent")
	}
}
