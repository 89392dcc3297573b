package qoscluster

import (
	"fmt"
	"slices"

	"repro/internal/adminsrv"
	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/heal"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// DefaultFaultSpecs returns the paper-calibrated fault campaign: category
// arrival rates chosen so that one simulated year under ModeManual
// reproduces the Figure-2 "before" downtime breakdown (≈550 h total,
// dominated by databases crashing mid-job), given the operator timing model
// the paper reports. The same campaign runs unchanged in ModeAgents — the
// "after" column is earned, not configured.
func DefaultFaultSpecs() []faultinject.Spec {
	day := simclock.Day
	return []faultinject.Spec{
		{Category: metrics.CatMidCrash, MeanInterarrival: 19 * day, Window: faultinject.Overnight},
		{Category: metrics.CatHuman, MeanInterarrival: 21 * day, Window: faultinject.Daytime},
		{Category: metrics.CatPerformance, MeanInterarrival: 26 * day, Window: faultinject.Daytime},
		{Category: metrics.CatFrontEnd, MeanInterarrival: 25 * day, Window: faultinject.Daytime},
		{Category: metrics.CatLSF, MeanInterarrival: 42 * day, Window: faultinject.Daytime},
		{Category: metrics.CatFirewallNet, MeanInterarrival: 100 * day, Window: faultinject.Daytime},
		{Category: metrics.CatHardware, MeanInterarrival: 500 * day, Window: faultinject.AnyTime},
		{Category: metrics.CatCompletelyDown, MeanInterarrival: 182 * day, Window: faultinject.Daytime},
	}
}

// faultSpecs resolves the campaign the site runs: the Options override
// (or the paper-calibrated default), with per-tier fault domains attached
// when the topology or options declare any. Specs whose Domains a caller
// set explicitly are respected as given.
func (s *Site) faultSpecs() []faultinject.Spec {
	specs := s.Opts.Faults
	if specs == nil {
		specs = DefaultFaultSpecs()
	}
	if !s.hasTierFaultDomains() {
		return specs
	}
	out := make([]faultinject.Spec, len(specs))
	copy(out, specs)
	for i := range out {
		if out[i].Domains == nil {
			out[i].Domains = s.faultDomains(out[i].Category)
		}
	}
	return out
}

// hasTierFaultDomains reports whether any tier-scoped fault behaviour is
// configured; untiered sites keep the site-global campaign byte-identical
// to the pre-domain path.
func (s *Site) hasTierFaultDomains() bool {
	if len(s.Opts.TierFaultScale) > 0 {
		return true
	}
	for _, tier := range s.Topo.Tiers {
		if tier.Faults != nil {
			return true
		}
	}
	return false
}

// faultDomains compiles one category's domain list: every topology tier,
// with its resolved weight (eligibility gate, then the Only restriction,
// then the category's rate multiplier, then the fault-intensity scale)
// and blackout windows. Tiers that cannot host the category's breakage
// at all get weight 0 — otherwise their share of the arrivals would
// silently no-op in the injector, diluting the category's effective rate
// below what the weights say. Weights are therefore *relative shares*
// over the eligible tiers; the site-wide arrival rate is the spec's.
func (s *Site) faultDomains(cat metrics.Category) []faultinject.Domain {
	out := make([]faultinject.Domain, 0, len(s.Topo.Tiers))
	for _, tier := range s.Topo.Tiers {
		d := faultinject.Domain{Tier: tier.Name}
		if tierEligible(tier, cat) {
			d.Weight = 1
		}
		if fs := tier.Faults; fs != nil {
			if len(fs.Only) > 0 && !slices.Contains(fs.Only, string(cat)) {
				d.Weight = 0
			} else if r, ok := fs.Rates[string(cat)]; ok && d.Weight > 0 {
				d.Weight = r
			}
			for _, b := range fs.Blackouts {
				d.Blackouts = append(d.Blackouts, faultinject.Blackout{From: b.FromHour, To: b.ToHour})
			}
		}
		if scale, ok := s.Opts.TierFaultScale[tier.Name]; ok {
			d.Weight *= scale
		}
		out = append(out, d)
	}
	return out
}

// tierDeploysKind reports whether the tier's templates put at least one
// service instance of one of the given kinds on some host.
func tierDeploysKind(tier Tier, kinds ...svc.Kind) bool {
	for _, st := range tier.Services {
		if !slices.Contains(kinds, svc.Kind(st.Kind)) {
			continue
		}
		for i := 0; i < tier.Hosts; i++ {
			if st.appliesTo(i) {
				return true
			}
		}
	}
	return false
}

// tierDeploysTarget reports whether the tier expands to at least one
// LSF-target service.
func tierDeploysTarget(tier Tier) bool {
	for _, st := range tier.Services {
		if !st.LSFTarget {
			continue
		}
		for i := 0; i < tier.Hosts; i++ {
			if st.appliesTo(i) {
				return true
			}
		}
	}
	return false
}

// tierEligible reports whether the tier has anything the category's
// injector can break — it mirrors each injector's target selection.
func tierEligible(tier Tier, cat metrics.Category) bool {
	switch cat {
	case metrics.CatMidCrash:
		return tierDeploysTarget(tier)
	case metrics.CatHuman:
		return tierDeploysKind(tier, svc.KindOracle, svc.KindSybase, svc.KindWeb, svc.KindFront, svc.KindFeed)
	case metrics.CatPerformance:
		return tier.Role == "database" || tier.Role == "transaction"
	case metrics.CatFrontEnd:
		return tierDeploysKind(tier, svc.KindFront)
	case metrics.CatLSF:
		return tierDeploysKind(tier, svc.KindLSF)
	case metrics.CatCompletelyDown:
		return tierDeploysKind(tier, svc.KindOracle, svc.KindSybase, svc.KindFront, svc.KindFeed)
	default:
		// Firewall/network and hardware errors hit hosts, not services:
		// every tier qualifies.
		return true
	}
}

// inTier reports whether a host belongs to the fault domain; a blank
// domain is site-wide.
func (s *Site) inTier(host, tier string) bool {
	return tier == "" || s.tierOf[host] == tier
}

// inject performs one category's concrete breakage — confined to the
// given tier when the arrival is domain-scoped, site-wide when tier is
// "" — and registers the live fault. In ModeManual the operator detection
// clock starts here; in ModeAgents detection is whatever the agents (or
// the admin sweep) achieve.
func (s *Site) inject(cat metrics.Category, tier string, now simclock.Time) {
	var f *faultinject.Fault
	switch cat {
	case metrics.CatMidCrash:
		f = s.injectMidCrash(tier, now)
	case metrics.CatHuman:
		f = s.injectHumanError(tier, now)
	case metrics.CatPerformance:
		f = s.injectPerformance(tier, now)
	case metrics.CatFrontEnd:
		f = s.injectFrontEnd(tier, now)
	case metrics.CatLSF:
		f = s.injectLSF(tier, now)
	case metrics.CatFirewallNet:
		f = s.injectFirewallNet(tier, now)
	case metrics.CatHardware:
		f = s.injectHardware(tier, now)
	case metrics.CatCompletelyDown:
		f = s.injectCompletelyDown(tier, now)
	}
	if f == nil {
		return // no eligible target right now; the campaign will be back
	}
	if s.Opts.Mode == ModeManual {
		// Without agents, nothing notices until a human does. PageDelay is
		// DetectionDelay plus a trace event — same draw either way.
		delay := s.Team.PageDelay(now, cat, f.Host, f.Aspect)
		s.Sim.After(delay, "manual-detect:"+f.Aspect, func(now2 simclock.Time) {
			s.Registry.DetectFault(f, now2, "operator")
		})
	}
}

// pickService returns a running service of one of the given kinds in the
// fault domain with no open fault, or nil. A blank tier means site-wide;
// the filter order keeps candidate enumeration (and so the random draw)
// identical to the pre-domain path for site-wide arrivals.
func (s *Site) pickService(rng *simclock.Rand, tier string, kinds ...svc.Kind) *svc.Service {
	var cands []*svc.Service
	for _, k := range kinds {
		for _, sv := range s.Dir.ByKind(k) {
			if sv.Running() && s.inTier(sv.Host.Name, tier) &&
				s.Registry.Find(sv.Host.Name, agents.ServiceAspect(sv.Spec.Name)) == nil {
				cands = append(cands, sv)
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[rng.Intn(len(cands))]
}

// injectMidCrash crashes a database under batch load, failing its jobs —
// the paper's dominant downtime source ("large database jobs scheduled to
// run overnight would frequently crash databases").
func (s *Site) injectMidCrash(tier string, now simclock.Time) *faultinject.Fault {
	rng := s.Sim.Rand()
	// Prefer a database currently running jobs.
	var busy, any []*svc.Service
	for _, name := range s.dbServices {
		sv := s.Dir.Get(name)
		if sv == nil || !sv.Running() || !s.inTier(sv.Host.Name, tier) ||
			s.Registry.Find(sv.Host.Name, agents.ServiceAspect(name)) != nil {
			continue
		}
		any = append(any, sv)
		if s.LSF.RunningOn(name) > 0 {
			busy = append(busy, sv)
		}
	}
	pool := busy
	if len(pool) == 0 {
		pool = any
	}
	if len(pool) == 0 {
		return nil
	}
	sv := pool[rng.Intn(len(pool))]
	sv.Crash()
	s.LSF.FailJobsOn(sv.Spec.Name)
	return s.Registry.Add(metrics.CatMidCrash, sv.Host.Name, agents.ServiceAspect(sv.Spec.Name),
		fmt.Sprintf("%s crashed under batch load", sv.Spec.Name), false, now,
		heal.EnsureServiceRunning(s.Sim, sv))
}

// injectHumanError breaks a service through a bad manual change: the
// service ends up stopped (wrong config pushed, wrong process killed).
func (s *Site) injectHumanError(tier string, now simclock.Time) *faultinject.Fault {
	sv := s.pickService(s.Sim.Rand(), tier, svc.KindOracle, svc.KindSybase, svc.KindWeb, svc.KindFront, svc.KindFeed)
	if sv == nil {
		return nil
	}
	sv.Stop()
	return s.Registry.Add(metrics.CatHuman, sv.Host.Name, agents.ServiceAspect(sv.Spec.Name),
		fmt.Sprintf("%s stopped by administrator mistake", sv.Spec.Name), false, now,
		heal.EnsureServiceRunning(s.Sim, sv))
}

// injectPerformance starts a runaway analyst process — a CPU hog or a
// memory leaker — on a database or transaction host.
func (s *Site) injectPerformance(tier string, now simclock.Time) *faultinject.Fault {
	rng := s.Sim.Rand()
	hosts := append(s.DC.ByRole(cluster.RoleDatabase), s.DC.ByRole(cluster.RoleTransaction)...)
	var up []*cluster.Host
	for _, h := range hosts {
		if h.Up() && s.inTier(h.Name, tier) && s.Registry.Find(h.Name, agents.AspectHog) == nil &&
			s.Registry.Find(h.Name, agents.AspectLeak) == nil {
			up = append(up, h)
		}
	}
	if len(up) == 0 {
		return nil
	}
	h := up[rng.Intn(len(up))]
	if rng.Bool(0.5) {
		p := h.Spawn("hog_simulation", fmt.Sprintf("analyst%d", rng.Intn(50)+1),
			float64(h.Model.CPUs), 256)
		if p == nil {
			return nil
		}
		pid := p.PID
		return s.Registry.Add(metrics.CatPerformance, h.Name, agents.AspectHog,
			fmt.Sprintf("runaway process %d saturating %s", pid, h.Name), false, now,
			func(simclock.Time) bool { h.Kill(pid); return true })
	}
	p := h.Spawn("leak_modelcache", fmt.Sprintf("analyst%d", rng.Intn(50)+1),
		0.2, 0.85*float64(h.Model.MemoryMB))
	if p == nil {
		return nil
	}
	pid := p.PID
	return s.Registry.Add(metrics.CatPerformance, h.Name, agents.AspectLeak,
		fmt.Sprintf("leaking process %d exhausting memory on %s", pid, h.Name), false, now,
		func(simclock.Time) bool { h.Kill(pid); return true })
}

// injectFrontEnd crashes or hangs a front-end application service.
func (s *Site) injectFrontEnd(tier string, now simclock.Time) *faultinject.Fault {
	sv := s.pickService(s.Sim.Rand(), tier, svc.KindFront)
	if sv == nil {
		return nil
	}
	how := "crashed"
	if s.Sim.Rand().Bool(0.3) {
		sv.Hang()
		how = "hung (latent error)"
	} else {
		sv.Crash()
	}
	return s.Registry.Add(metrics.CatFrontEnd, sv.Host.Name, agents.ServiceAspect(sv.Spec.Name),
		fmt.Sprintf("front-end %s %s", sv.Spec.Name, how), false, now,
		heal.EnsureServiceRunning(s.Sim, sv))
}

// injectLSF crashes a host's LSF daemons ("very often they would crash").
func (s *Site) injectLSF(tier string, now simclock.Time) *faultinject.Fault {
	sv := s.pickService(s.Sim.Rand(), tier, svc.KindLSF)
	if sv == nil {
		return nil
	}
	sv.Crash()
	return s.Registry.Add(metrics.CatLSF, sv.Host.Name, agents.ServiceAspect(sv.Spec.Name),
		fmt.Sprintf("LSF daemons on %s crashed", sv.Host.Name), false, now,
		heal.EnsureServiceRunning(s.Sim, sv))
}

// injectFirewallNet breaks a host's public-LAN connectivity (firewall
// misconfiguration or network error). Agents detect but cannot repair
// these (the paper's stated limitation).
func (s *Site) injectFirewallNet(tier string, now simclock.Time) *faultinject.Fault {
	rng := s.Sim.Rand()
	hosts := s.DC.Hosts()
	var up []*cluster.Host
	for _, h := range hosts {
		if h.Up() && h.Role != cluster.RoleAdmin && s.inTier(h.Name, tier) &&
			s.Registry.Find(h.Name, agents.AspectNet) == nil {
			up = append(up, h)
		}
	}
	if len(up) == 0 {
		return nil
	}
	h := up[rng.Intn(len(up))]
	s.Public.SetLink(h.Name, false)
	h.InjectNICErrors(50)
	return s.Registry.Add(metrics.CatFirewallNet, h.Name, agents.AspectNet,
		fmt.Sprintf("firewall/network error isolates %s from the public LAN", h.Name), true, now,
		func(simclock.Time) bool {
			s.Public.SetLink(h.Name, true)
			h.ClearNICErrors()
			return true
		})
}

// injectHardware kills a host outright: boards, power, backplane. Physical
// repair required; nothing on the box can help.
func (s *Site) injectHardware(tier string, now simclock.Time) *faultinject.Fault {
	rng := s.Sim.Rand()
	var up []*cluster.Host
	for _, h := range s.DC.Hosts() {
		if h.Up() && h.Role != cluster.RoleAdmin && s.inTier(h.Name, tier) {
			up = append(up, h)
		}
	}
	if len(up) == 0 {
		return nil
	}
	h := up[rng.Intn(len(up))]
	affected := s.Dir.OnHost(h.Name)
	h.HardwareFail()
	for _, sv := range affected {
		s.LSF.FailJobsOn(sv.Spec.Name)
	}
	ensure := heal.EnsureHostUp(s.Sim, h, affected)
	aspect := adminsrv.HostAspect(h.Name)
	return s.Registry.Add(metrics.CatHardware, h.Name, aspect,
		fmt.Sprintf("hardware failure takes %s down", h.Name), true, now,
		func(now2 simclock.Time) bool {
			if !ensure(now2) {
				return false
			}
			// Restoring the box also cures any faults that were pending on
			// it (a crashed service waiting for its host, a hog that died
			// with the machine); close their incidents with the same
			// engineer visit, or they would accrue downtime unobserved.
			for _, other := range s.Registry.OpenOn(h.Name) {
				if other.Aspect != aspect {
					s.Registry.ResolveFault(other, now2, "oncall-admin")
				}
			}
			return true
		})
}

// injectCompletelyDown corrupts a service so that restarts fail until a
// human repairs the damage ("corruptions, bugs etc").
func (s *Site) injectCompletelyDown(tier string, now simclock.Time) *faultinject.Fault {
	sv := s.pickService(s.Sim.Rand(), tier, svc.KindOracle, svc.KindSybase, svc.KindFront, svc.KindFeed)
	if sv == nil {
		return nil
	}
	sv.Crash()
	sv.Wedged = true
	ensure := heal.EnsureServiceRunning(s.Sim, sv)
	return s.Registry.Add(metrics.CatCompletelyDown, sv.Host.Name, agents.ServiceAspect(sv.Spec.Name),
		fmt.Sprintf("%s completely unavailable (corruption)", sv.Spec.Name), true, now,
		func(now2 simclock.Time) bool {
			sv.Wedged = false
			return ensure(now2)
		})
}
