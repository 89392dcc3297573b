// Package heal provides the repair actions the intelliagents' self-healing
// parts prescribe (§3.3, §3.4): restarting services in dependency order,
// killing hung or runaway processes, rebooting hosts, and "ensure-fixed"
// closures that make fault-registry repairs idempotent.
package heal

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// RestartService stops the service if needed and starts it again. onUp is
// called when the service is running (after its startup time). It returns
// an error when the restart cannot even begin (host down).
func RestartService(sim *simclock.Sim, s *svc.Service, onUp func(now simclock.Time)) error {
	switch s.State() {
	case svc.StateRunning, svc.StateDegraded:
		s.Stop()
	case svc.StateHung:
		// Kill the hung processes before restarting.
		s.Stop()
	case svc.StateStarting:
		// Already on its way; piggyback on the existing start by polling
		// (cheap: one event at startup-time granularity).
		sim.After(s.Spec.StartupTime, "heal-wait:"+s.Spec.Name, func(now simclock.Time) {
			if s.Running() && onUp != nil {
				onUp(now)
			}
		})
		return nil
	}
	if err := s.Start(onUp); err != nil {
		return fmt.Errorf("heal: restart %s: %w", s.Spec.Name, err)
	}
	return nil
}

// RestartStack restarts a service and then every registered dependent that
// is not running, in dependency order — the paper's "ensuring that all
// service components are available in the sequence they are meant to be".
func RestartStack(sim *simclock.Sim, dir *svc.Directory, root *svc.Service, onAllUp func(now simclock.Time)) error {
	order, err := dir.StartOrder()
	if err != nil {
		return err
	}
	// Collect root plus transitive dependents, preserving start order.
	affected := map[string]bool{root.Spec.Name: true}
	for _, s := range order {
		for _, dep := range s.Spec.DependsOn {
			if affected[dep] {
				affected[s.Spec.Name] = true
			}
		}
	}
	var toStart []*svc.Service
	for _, s := range order {
		if !affected[s.Spec.Name] {
			continue
		}
		// The root restarts even when merely degraded (partial component
		// failure); healthy dependents are left alone.
		if s == root && s.State() != svc.StateRunning {
			toStart = append(toStart, s)
		} else if s != root && !s.Running() {
			toStart = append(toStart, s)
		}
	}
	if len(toStart) == 0 {
		if onAllUp != nil {
			onAllUp(sim.Now())
		}
		return nil
	}
	remaining := len(toStart)
	for _, s := range toStart {
		err := RestartService(sim, s, func(now simclock.Time) {
			remaining--
			if remaining == 0 && onAllUp != nil {
				onAllUp(now)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// KillProcess kills one process by PID, reporting success.
func KillProcess(h *cluster.Host, pid int) bool { return h.Kill(pid) }

// RebootHost boots a down host and restarts the given services when it
// comes up. Hosts with hardware faults do not boot; the caller must check.
func RebootHost(sim *simclock.Sim, h *cluster.Host, bootTime simclock.Time, services []*svc.Service, onUp func(now simclock.Time)) {
	if h.Up() {
		h.Crash()
	}
	h.Boot(bootTime, func(now simclock.Time) {
		remaining := len(services)
		if remaining == 0 {
			if onUp != nil {
				onUp(now)
			}
			return
		}
		for _, s := range services {
			_ = RestartService(sim, s, func(now2 simclock.Time) {
				remaining--
				if remaining == 0 && onUp != nil {
					onUp(now2)
				}
			})
		}
	})
}

// EnsureServiceRunning returns an idempotent repair closure for the fault
// registry: true when the service is already running; otherwise it performs
// an immediate (manual-path) restart and reports true. Manual repairs
// resolve at the moment the operator finishes, so the restart is applied
// instantaneously at resolution time — the hours of delay live in the
// operator model, not here.
func EnsureServiceRunning(sim *simclock.Sim, s *svc.Service) func(now simclock.Time) bool {
	return func(now simclock.Time) bool {
		if s.Running() {
			return true
		}
		if !s.Host.Up() {
			return false
		}
		// Manual fix: bring it straight up (operator already spent the
		// repair delay working on it).
		s.Stop()
		if err := s.Start(nil); err != nil {
			return false
		}
		s.ForceRunning()
		return true
	}
}

// EnsureHostUp returns an idempotent repair closure that repairs hardware
// and boots the host instantly at resolution time, then force-starts the
// given services.
func EnsureHostUp(sim *simclock.Sim, h *cluster.Host, services []*svc.Service) func(now simclock.Time) bool {
	return func(now simclock.Time) bool {
		if !h.Up() {
			h.RepairHardware()
			h.ForceUp(now)
		}
		for _, s := range services {
			if !s.Running() {
				s.Stop()
				if s.Start(nil) == nil {
					s.ForceRunning()
				}
			}
		}
		return h.Up()
	}
}
