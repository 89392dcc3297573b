package agents

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/diagnose"
	"repro/internal/fsim"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// NewDatabaseAgent builds the database measurement intelliagent of §3.6:
// scripts written "with a lot of input from experienced database
// administrators" that combine Unix tools and SQL commands to measure, per
// database: (1) time to connect, (2) time for a request to be served,
// (6) per-process CPU and memory utilisation, (7) connected users, and
// compare each against the DBA-provided baseline. Measurements land in the
// per-server circular logs next to the OS groups.
//
// This agent measures and reports; repair of a broken database belongs to
// the service agent (the two run in parallel and do not depend on each
// other, as the paper's agents do).
func NewDatabaseAgent(cfg agent.Config, db *svc.Service) (*agent.Agent, error) {
	if db.Spec.Kind != svc.KindOracle && db.Spec.Kind != svc.KindSybase {
		return nil, fmt.Errorf("agents: database agent wants a database, got %s", db.Spec.Kind)
	}
	b := diagnose.DefaultDBBaseline()
	host := cfg.Host
	if host == nil {
		cfg.Host = db.Host
		host = db.Host
	}
	// The log opens its file at its first append; its cap is positive, so
	// NewCircLog cannot fail.
	log, _ := fsim.NewCircLog(host.FS, PerfLogDir(host.Name)+"/db-"+db.Spec.Name+".log", 1000)
	admin := cfg.AdminEmail

	cfg.Name = "database-" + db.Spec.Name
	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			if !db.Running() {
				// Down databases are the service agent's problem; the
				// measurement agent records the gap and stands aside.
				_ = log.Append(fmt.Sprintf("%d|state=%s", int64(rc.Now), db.State()))
				return nil
			}
			// Dynamic measurement: connect and run the basic command,
			// timing it, exactly as the paper's scripts do.
			res := db.Probe()
			connectS := res.Latency.Duration().Seconds()
			// Request service time models a representative query: the
			// probe latency scaled by the contention the server is under.
			requestS := connectS * (1 + 4*host.CPUUtilisation())

			var procCPU, procMem float64
			for _, c := range db.Spec.Components {
				for _, p := range host.PGrep(c.ProcName) {
					procCPU += p.CPUDemand
					procMem += p.MemMB
				}
			}
			users := db.Connections()
			_ = log.Append(fmt.Sprintf("%d|connect=%.3f|request=%.3f|cpu=%.2f|memMB=%.0f|users=%d",
				int64(rc.Now), connectS, requestS, procCPU, procMem, users))

			var out []agent.Finding
			check := func(aspect string, v float64) {
				if msg, bad := b.Check(aspect, v); bad {
					out = append(out, agent.Finding{Aspect: aspect, Severity: agent.SevWarning,
						Detail: db.Spec.Name + ": " + msg, Metric: v})
					if rc.Notify != nil && admin != "" {
						rc.Notify.Send("threshold-exceeded")
					}
				}
			}
			check("db.connect", connectS)
			check("db.request", requestS)
			return out
		},
		// Measurement-only agent: suggestions, not repairs (§3.3's
		// "limited troubleshooting capabilities").
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis { return nil },
	}
	return agent.New(cfg)
}

// EndToEndProbe measures "the time taken for a request to be served by the
// entire application from beginning to end" (§3.6, distributed
// applications): a dummy transaction walked through every component of the
// dependency chain rooted at front. It returns the summed latency and
// whether every hop answered.
func EndToEndProbe(dir *svc.Directory, front *svc.Service) (simclock.Time, bool) {
	var total simclock.Time
	ok := true
	seen := map[string]bool{}
	var walk func(s *svc.Service)
	walk = func(s *svc.Service) {
		if seen[s.Spec.Name] {
			return
		}
		seen[s.Spec.Name] = true
		res := s.Probe()
		total += res.Latency
		if !res.OK() {
			ok = false
		}
		for _, dep := range s.Spec.DependsOn {
			if d := dir.Get(dep); d != nil {
				walk(d)
			}
		}
	}
	walk(front)
	return total, ok
}

// NewEndToEndAgent builds the distributed-application prober of §3.6: every
// run it simulates a user request through all components of the front-end's
// stack and alerts when the end-to-end time exceeds the baseline or any hop
// fails. The paper ran this "every 15 to 30 minutes" in addition to
// business-as-usual requests.
func NewEndToEndAgent(cfg agent.Config, front *svc.Service, maxLatency simclock.Time) (*agent.Agent, error) {
	if cfg.Host == nil {
		cfg.Host = front.Host
	}
	cfg.Name = "e2e-" + front.Spec.Name
	cfg.Parts = agent.Parts{
		Monitor: func(rc *agent.RunContext) []agent.Finding {
			lat, ok := EndToEndProbe(rc.Services, front)
			if ok && lat <= maxLatency {
				return nil
			}
			detail := fmt.Sprintf("end-to-end %v (max %v), all-hops-ok=%v", lat, maxLatency, ok)
			sev := agent.SevWarning
			if !ok {
				sev = agent.SevFault
			}
			return []agent.Finding{{Aspect: "e2e." + front.Spec.Name, Severity: sev,
				Detail: detail, Metric: lat.Duration().Seconds()}}
		},
		Diagnose: func(rc *agent.RunContext, fs []agent.Finding) []agent.Diagnosis {
			// The end-to-end prober localises: name the first broken hop
			// so the operator (or the hop's own service agent) knows where
			// to look — the paper's answer to "operators did not know
			// where to start looking".
			var out []agent.Diagnosis
			for _, f := range fs {
				if f.Severity < agent.SevFault {
					continue
				}
				hop := firstBrokenHop(rc.Services, front)
				out = append(out, agent.Diagnosis{Finding: f,
					RootCause: "component " + hop + " failing in the distributed stack",
					Action:    "defer-to-component-agent", Confident: hop != ""})
			}
			return out
		},
		Heal: func(rc *agent.RunContext, d agent.Diagnosis) agent.HealResult {
			return agent.HealResult{Action: d.Action, Healed: false,
				Detail: "component agents own the repair"}
		},
	}
	return agent.New(cfg)
}

// firstBrokenHop walks the stack and returns the first failing service.
func firstBrokenHop(dir *svc.Directory, front *svc.Service) string {
	seen := map[string]bool{}
	var walk func(s *svc.Service) string
	walk = func(s *svc.Service) string {
		if seen[s.Spec.Name] {
			return ""
		}
		seen[s.Spec.Name] = true
		for _, dep := range s.Spec.DependsOn {
			if d := dir.Get(dep); d != nil {
				if hop := walk(d); hop != "" {
					return hop
				}
			}
		}
		if !s.Probe().OK() {
			return s.Spec.Name
		}
		return ""
	}
	return walk(front)
}
