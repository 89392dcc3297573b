package qoscluster

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/adminsrv"
	"repro/internal/agent"
	"repro/internal/agents"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/fsim"
	"repro/internal/lsf"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/notify"
	"repro/internal/ontology"
	"repro/internal/operators"
	"repro/internal/probe"
	"repro/internal/simclock"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Site is an assembled, running scenario.
type Site struct {
	Topo Topology
	Opts Options

	Sim      *simclock.Sim
	DC       *cluster.Datacentre
	Dir      *svc.Directory
	LSF      *lsf.Cluster
	Private  *netsim.Network
	Public   *netsim.Network
	Bus      *notify.Bus
	Ledger   *metrics.Ledger
	Registry *faultinject.Registry
	Campaign *faultinject.Campaign
	Team     *operators.Team
	Gen      *workload.Generator
	Admin    *adminsrv.Pair // nil in ModeManual
	Monitors []*baseline.Monitor
	Agents   []*agent.Agent
	Probes   *probe.Engine   // nil unless the topology declares a probe spec
	Trace    *trace.Recorder // nil unless Options.TraceLevel > 0

	dbServices []string          // LSF execution targets, in deployment order
	tierOf     map[string]string // host name -> topology tier name
	started    bool
	deployErr  error // sticky first-Run deployment failure

	pool *simclock.Pool // intra-trial shard workers (nil: single-goroutine)
	// agentWheel holds the agent crons when Options.AgentSlots > 0, one
	// bucket per slot (nil otherwise).
	agentWheel *simclock.Wheel
	ranTo      simclock.Time // furthest simulated time a Run call has reached
	running    bool          // inside Run: guards re-entrant Run/Reset
}

// MaxShards bounds Options.Shards: more shards than this is certainly a
// misconfiguration (the per-tick work splits into at most
// tiers × slots × shards sub-ranges, and the merge barrier costs grow
// with the worker count).
const MaxShards = 64

// Shards reports the site's effective intra-trial shard count (1 when
// unsharded).
func (s *Site) Shards() int { return s.pool.Shards() }

// TraceEvents returns a copy of the decision events recorded so far (nil
// when the site runs untraced — see Options.TraceLevel).
func (s *Site) TraceEvents() []trace.Event { return s.Trace.Events() }

// NewSite assembles a site from a declarative topology and functional
// options; call Run to execute it. The topology is validated first, and
// every construction failure is returned with context — nothing panics.
func NewSite(topo Topology, options ...Option) (*Site, error) {
	var opts Options
	for _, opt := range options {
		if opt != nil {
			opt(&opts)
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("topology %q: %w", topo.Name, err)
	}
	if err := validateTierScales(topo, opts); err != nil {
		return nil, fmt.Errorf("topology %q: %w", topo.Name, err)
	}
	if opts.Shards < 0 || opts.Shards > MaxShards {
		return nil, fmt.Errorf("topology %q: options: shard count %d outside [0, %d]", topo.Name, opts.Shards, MaxShards)
	}
	if opts.TraceLevel < 0 || opts.TraceLevel > trace.MaxLevel {
		return nil, fmt.Errorf("topology %q: options: trace level %d outside [0, %d]", topo.Name, opts.TraceLevel, trace.MaxLevel)
	}
	if opts.AgentSlots < 0 {
		return nil, fmt.Errorf("topology %q: options: agent slot count %d is negative", topo.Name, opts.AgentSlots)
	}
	if opts.Counterfactual != nil && opts.TraceLevel <= 0 {
		return nil, fmt.Errorf("topology %q: options: a counterfactual needs tracing enabled (trace level >= 1) to anchor its decision event", topo.Name)
	}
	if opts.CronPeriod <= 0 {
		opts.CronPeriod = 5 * simclock.Minute
	}
	s := &Site{
		Topo: topo,
		Opts: opts,
		Sim:  simclock.New(opts.Seed),
		DC:   cluster.NewDatacentre(),
		Dir:  svc.NewDirectory(),
	}
	if opts.Shards > 1 {
		// The shard pool outlives any single trial: pooled campaign reuse
		// resets the site, not the workers, so tick sharding costs no
		// goroutine churn per trial.
		s.pool = simclock.NewPool(opts.Shards)
	}
	s.Bus = notify.NewBus(s.Sim)
	s.Ledger = metrics.NewLedger()
	s.Registry = faultinject.NewRegistry(s.Ledger)
	s.Team = operators.NewTeam(s.Sim.Rand().Fork(0x09e7))
	if opts.TraceLevel > trace.LevelOff {
		s.Trace = trace.New(opts.TraceLevel)
		// The closure reads s.tierOf at emission time, after buildHosts
		// fills it.
		s.Trace.SetTierOf(func(host string) string { return s.tierOf[host] })
		if opts.Counterfactual != nil {
			s.Trace.SetCounterfactual(*opts.Counterfactual)
		}
		s.Registry.Trace = s.Trace
		s.Team.Trace = s.Trace
	}
	s.buildNetworks()
	if err := s.buildHosts(); err != nil {
		return nil, err
	}
	if err := s.buildServices(); err != nil {
		return nil, err
	}
	if err := s.buildLSF(); err != nil {
		return nil, err
	}
	s.buildProbes()
	s.wireRepairPipeline()
	return s, nil
}

// buildProbes assembles the batched probe dispatcher when the topology
// declares a probe spec: each tier's services register in deployment
// order, and a failing probe feeds the fault registry's detection path —
// the manual-mode detection channel that stands in for per-host agents
// at scales where deploying them is infeasible. DetectFault is idempotent,
// so on agent-run sites probes and agents race to detect harmlessly.
// Sites without a spec build no engine and schedule nothing, keeping the
// existing byte-for-byte replay.
func (s *Site) buildProbes() {
	ps := s.Topo.Probes
	if ps == nil {
		return
	}
	period := simclock.Time(ps.PeriodMinutes) * simclock.Minute
	if period <= 0 {
		period = s.Opts.CronPeriod
	}
	slots := ps.Slots
	if slots <= 0 {
		slots = DefaultProbeSlots
	}
	s.Probes = probe.New(probe.Config{
		Sim: s.Sim, Period: period, Slots: slots,
		Reference: s.Opts.ReferenceProbes,
		Pool:      s.pool,
		OnFail: func(sv *svc.Service, _ svc.ProbeResult, now simclock.Time) {
			if f := s.Registry.Find(sv.Host.Name, agents.ServiceAspect(sv.Spec.Name)); f != nil {
				s.Registry.DetectFault(f, now, "probe")
			}
		},
	})
	for _, tier := range s.Topo.Tiers {
		var members []*svc.Service
		for i := 0; i < tier.Hosts; i++ {
			members = append(members, s.Dir.OnHost(tier.hostName(i))...)
		}
		s.Probes.AddTier(tier.Name, members)
	}
}

func (s *Site) buildNetworks() {
	s.Public = netsim.New(s.Sim, "public", 2*simclock.Time(1e6), 0.2) // 2ms LAN
	if !s.Opts.DisablePrivateNet {
		s.Private = netsim.New(s.Sim, "private", 1*simclock.Time(1e6), 0.1)
	}
}

func (s *Site) attach(h *cluster.Host) {
	s.Public.Attach(h.Name, nil)
	if s.Private != nil {
		s.Private.Attach(h.Name, nil)
	}
}

// validateTierScales vets the per-tier intensity scales against the
// topology: every named tier must exist, and every scale must be finite
// and non-negative. Tier names are checked in sorted order so a
// multi-error option set always reports the same first problem.
func validateTierScales(topo Topology, opts Options) error {
	tiers := map[string]bool{}
	for _, t := range topo.Tiers {
		tiers[t.Name] = true
	}
	check := func(kind string, names []string) error {
		for _, name := range names {
			if !tiers[name] {
				return fmt.Errorf("%s override names unknown tier %q", kind, name)
			}
		}
		return nil
	}
	sl := slices.Sorted(maps.Keys(opts.TierFaultScale))
	if err := check("tier-fault-scale", sl); err != nil {
		return err
	}
	for _, name := range sl {
		if scale := opts.TierFaultScale[name]; math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			return fmt.Errorf("tier-fault-scale for %q is %v (want a finite multiplier >= 0)", name, scale)
		}
	}
	ll := slices.Sorted(maps.Keys(opts.TierLoadScale))
	if err := check("tier-load-scale", ll); err != nil {
		return err
	}
	for _, name := range ll {
		if scale := opts.TierLoadScale[name]; math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			return fmt.Errorf("tier-load-scale for %q is %v (want a finite multiplier >= 0)", name, scale)
		}
	}
	return nil
}

// Tiered reports whether any per-tier workload or fault domain is in
// play — from a tier spec or an intensity scale. Untiered sites run the
// single-global-domain workload and fault paths.
func (s *Site) Tiered() bool {
	if len(s.Opts.TierFaultScale) > 0 || len(s.Opts.TierLoadScale) > 0 {
		return true
	}
	for _, tier := range s.Topo.Tiers {
		if tier.Workload != nil || tier.Faults != nil {
			return true
		}
	}
	return false
}

// TierOf maps a host name to its topology tier ("" for the mode-added
// administration hosts).
func (s *Site) TierOf(host string) string { return s.tierOf[host] }

// buildHosts realises every tier's hosts in declaration order.
func (s *Site) buildHosts() error {
	s.tierOf = make(map[string]string)
	for _, tier := range s.Topo.Tiers {
		role, err := roleFor(tier.Role)
		if err != nil {
			return fmt.Errorf("tier %q: %w", tier.Name, err)
		}
		for i := 0; i < tier.Hosts; i++ {
			h := cluster.NewHost(s.Sim, tier.hostName(i), tier.hostIP(i),
				tier.hardwareFor(i), role, s.Topo.Name, s.Topo.Geo)
			s.DC.Add(h)
			s.attach(h)
			s.tierOf[h.Name] = tier.Name
		}
	}
	return nil
}

// buildServices stamps every tier's service templates across its hosts,
// resolves cross-tier dependencies against the target tiers' LSF pools,
// then starts everything in dependency order.
func (s *Site) buildServices() error {
	// First pass: each tier's LSF-target pool, in deployment order, so
	// DependsOn can round-robin over it regardless of tier order.
	pools := map[string][]string{}
	for _, tier := range s.Topo.Tiers {
		for i := 0; i < tier.Hosts; i++ {
			for _, st := range tier.Services {
				if st.LSFTarget && st.appliesTo(i) {
					pools[tier.Name] = append(pools[tier.Name], st.instanceName(i+1, tier.hostName(i)))
				}
			}
		}
	}
	for _, tier := range s.Topo.Tiers {
		for i := 0; i < tier.Hosts; i++ {
			h := s.DC.Host(tier.hostName(i))
			for _, st := range tier.Services {
				if !st.appliesTo(i) {
					continue
				}
				name := st.instanceName(i+1, h.Name)
				spec, err := svc.SpecFor(svc.Kind(st.Kind), name, st.Port+i*st.PortStep)
				if err != nil {
					return fmt.Errorf("tier %q host %s: %w", tier.Name, h.Name, err)
				}
				if st.DependsOn != "" {
					pool := pools[st.DependsOn]
					spec.DependsOn = append(spec.DependsOn, pool[i%len(pool)])
				}
				sv, err := svc.New(s.Sim, spec, h)
				if err != nil {
					return fmt.Errorf("tier %q host %s: service %s: %w", tier.Name, h.Name, name, err)
				}
				s.Dir.Add(sv)
				if st.LSFTarget {
					s.dbServices = append(s.dbServices, name)
				}
			}
		}
	}
	// Everything starts; startup completes within the first minutes.
	return s.startServices()
}

// startServices launches every service in dependency order and settles the
// first ten minutes of simulated time — the dynamic tail of assembly,
// shared by the fresh build and Reset.
func (s *Site) startServices() error {
	order, err := s.Dir.StartOrder()
	if err != nil {
		return fmt.Errorf("service start order: %w", err)
	}
	for _, sv := range order {
		_ = sv.Start(nil)
	}
	s.Sim.RunUntil(10 * simclock.Minute)
	return nil
}

func (s *Site) buildLSF() error {
	s.LSF = lsf.NewCluster(s.Sim, s.Dir)
	for _, name := range s.dbServices {
		sv := s.Dir.Get(name)
		// The site configured "a finite number of scheduled jobs per
		// database server": scale slots with machine size.
		s.LSF.SetSlotLimit(name, sv.Host.Model.CPUs/2+2)
	}
	s.Gen = workload.New(s.Sim, s.workloadConfig(), s.DC, s.Dir, s.LSF, s.dbServices)
	if tiers := s.workloadDomains(); tiers != nil {
		s.Gen.SetDomains(s.tierOf, tiers)
	}
	// The topology's named spec resolves through the registry, whose
	// entries validate on the way in; a topology that names none keeps
	// the generator's own default, PaperSpec.
	if name := s.Topo.Workload; name != "" {
		sp, ok := workload.SpecByName(name)
		if !ok {
			return fmt.Errorf("topology %q: workload spec %q is not registered (have: %s) — register it or load its file with -workload",
				s.Topo.Name, name, strings.Join(workload.SpecNames(), ", "))
		}
		s.Gen.SetSpec(sp)
	}
	return nil
}

// workloadDomains compiles the per-tier workload specs into generator
// coefficients, or nil when no tier declares one — the generator then
// keeps its single global domain.
func (s *Site) workloadDomains() map[string]workload.TierLoad {
	// A -tierload scale forces domains on even when no tier declares a
	// spec: the scale multiplies the (then all-ones) resolved weights.
	any := len(s.Opts.TierLoadScale) > 0
	for _, tier := range s.Topo.Tiers {
		if any || tier.Workload != nil {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	tiers := make(map[string]workload.TierLoad, len(s.Topo.Tiers))
	for _, tier := range s.Topo.Tiers {
		tl := workload.DefaultTierLoad()
		if ws := tier.Workload; ws != nil {
			if ws.AnalystShare != nil {
				tl.Share = *ws.AnalystShare
			}
			if ws.BatchIntensity != nil {
				tl.Batch = *ws.BatchIntensity
			}
			if ws.FeedWeight != nil {
				tl.Feed = *ws.FeedWeight
			}
			if ws.DiurnalAmplitude != nil {
				tl.Amp = *ws.DiurnalAmplitude
			}
		}
		// The -tierload intensity axis multiplies the load weights but
		// leaves the diurnal amplitude alone: it scales how much load the
		// tier draws, not when the load arrives.
		if scale, ok := s.Opts.TierLoadScale[tier.Name]; ok {
			tl.Share *= scale
			tl.Batch *= scale
			tl.Feed *= scale
		}
		tiers[tier.Name] = tl
	}
	return tiers
}

// workloadConfig resolves the offered load: an Options.Workload override
// is taken verbatim — no site-size scaling, no OvernightJobs floor —
// while the default config scales with the LSF-target pool (the paper's
// site had one database target per database host, so the pool is the
// site-size proxy) and keeps at least two overnight jobs so the 22:00
// drop exists at any scale.
func (s *Site) workloadConfig() workload.Config {
	if s.Opts.Workload != nil {
		return *s.Opts.Workload
	}
	cfg := workload.DefaultConfig()
	scale := float64(len(s.dbServices)) / 100
	cfg.PeakAnalysts = int(float64(cfg.PeakAnalysts) * scale)
	cfg.DayJobsPerHour *= scale
	cfg.OvernightJobs = int(float64(cfg.OvernightJobs) * scale)
	if cfg.OvernightJobs < 2 {
		cfg.OvernightJobs = 2
	}
	return cfg
}

// Run starts the scenario machinery (on first call) and advances the
// simulation until the given absolute time. A deployment failure on the
// first call is returned before any simulated time passes — and sticks:
// every later Run returns it too, so a caller that dropped the first
// error cannot quietly advance a half-deployed site.
//
// Run may be called repeatedly with strictly increasing times to advance a
// scenario in steps. Re-invoking it with a time already reached is an
// error: the site's event state is spent up to that point, and silently
// "re-running" would report the same ledger as if new simulation had
// happened. Reset rewinds the site for a genuine re-run.
func (s *Site) Run(until simclock.Time) error {
	if s.running {
		return fmt.Errorf("site %s: Run(%v) re-entered from inside an event callback", s.Topo.Name, until)
	}
	if s.started && until <= s.ranTo {
		return fmt.Errorf("site %s: already ran to %v; Run(%v) would re-run spent event state — advance further or Reset(seed) first",
			s.Topo.Name, s.ranTo, until)
	}
	if !s.started {
		s.started = true
		s.Gen.Start()
		switch s.Opts.Mode {
		case ModeManual:
			s.deployManual()
		case ModeAgents:
			if err := s.deployAgents(); err != nil {
				s.deployErr = fmt.Errorf("deploy agents: %w", err)
			}
		}
		if s.deployErr == nil {
			if s.Probes != nil {
				s.Probes.Start()
			}
			s.Campaign = faultinject.NewCampaign(s.Sim, s.inject)
			s.Campaign.Trace = s.Trace
			s.Campaign.Start(s.faultSpecs())
		}
	}
	if s.deployErr != nil {
		return s.deployErr
	}
	s.running = true
	s.Sim.RunUntil(until)
	s.running = false
	if until > s.ranTo {
		s.ranTo = until
	}
	return nil
}

// Reset rewinds the site to the state NewSite left it in, reseeded: the
// simulator, hosts (including their filesystems), services, networks,
// ledger, fault registry and workload generator all return to their
// post-assembly state; mode-added machinery (administration pair, agents,
// monitors, fault campaign) is dropped and will redeploy on the next Run.
// The next Run replays exactly what a freshly built site with the same
// topology, options and seed would produce — the reuse equivalence tests
// gate this byte-for-byte — while reusing the allocated skeleton (host
// names, filesystem maps, service objects, event storage).
//
// Reset is safe whenever the topology and non-seed options are unchanged:
// everything derived from them is rebuilt or replayed. Changing the
// topology or options requires a rebuild with NewSite — Reset deliberately
// has no way to take new ones.
func (s *Site) Reset(seed uint64) error {
	if s.running {
		return fmt.Errorf("site %s: Reset(%d) from inside an event callback", s.Topo.Name, seed)
	}
	s.Opts.Seed = seed
	s.Sim.Reset(seed)

	// Drop the mode-added administration hosts, then rewind the skeleton.
	s.DC.Remove("admin1")
	s.DC.Remove("admin2")
	for _, h := range s.DC.Hosts() {
		h.Reset()
	}
	for _, sv := range s.Dir.All() {
		sv.Reset()
	}
	s.Bus.Reset()
	s.Ledger.Reset()
	s.Registry.Reset() // keeps the OnDetected repair-pipeline hook
	s.Public.Reset()
	if s.Private != nil {
		s.Private.Reset()
	}
	s.LSF.Reset()
	s.Admin = nil
	s.Monitors = nil
	s.Agents = nil
	s.Campaign = nil
	s.agentWheel = nil
	if s.Probes != nil {
		s.Probes.Reset()
	}
	s.started = false
	s.deployErr = nil
	s.ranTo = 0
	s.Trace.Reset()

	// Replay the dynamic half of assembly in the exact order NewSite runs
	// it, so the reseeded random stream is consumed identically: the
	// operator team's fork, then service startup and the settling window,
	// then the workload generator's fork.
	s.Team.Reseed(s.Sim.Rand().Fork(0x09e7))
	for _, tier := range s.Topo.Tiers {
		for i := 0; i < tier.Hosts; i++ {
			s.attach(s.DC.Host(tier.hostName(i)))
		}
	}
	if err := s.startServices(); err != nil {
		return fmt.Errorf("site %s: reset: %w", s.Topo.Name, err)
	}
	s.Gen.Reset(s.Sim.Rand())
	return nil
}

// deployManual installs the before-year operations: a BMC-style
// monitor's resident daemon on every database host. Each install forks
// the site stream, so a manual site always installs them, and the draws
// after deployment do not depend on whether the monitors poll. The polls
// raise console alerts that no metric reads (manual detection is the
// operator model's), so they are registered only under
// Options.BaselineMonitors, back to back at one instant on one wheel:
// they share one bucket, one heap event per poll round for the whole
// site. The wheel is their own, not the agents' slot wheel, which exists
// only under Options.AgentSlots. Agents deploy after the monitors, so an
// agent slot on a poll instant runs after the polls, as per-host tickers
// did.
func (s *Site) deployManual() {
	for _, h := range s.DC.ByRole(cluster.RoleDatabase) {
		s.Monitors = append(s.Monitors, baseline.Install(
			s.Sim, h, baseline.DefaultFootprint(), s.Bus, "noc-console"))
	}
	if s.Opts.BaselineMonitors {
		w := simclock.NewWheel(s.Sim)
		for _, m := range s.Monitors {
			m.StartPolling(w, 5*simclock.Minute, s.Dir)
		}
	}
}

// deployAgents installs the after-year operations: intelliagents on every
// host, administration pair, shared pool, DGSPL loop and batch rescue.
func (s *Site) deployAgents() error {
	// Administration hosts and shared NFS pool.
	admin1 := cluster.NewHost(s.Sim, "admin1", adminIPBlock+".1", cluster.ModelE450, cluster.RoleAdmin, s.Topo.Name, s.Topo.Geo)
	admin2 := cluster.NewHost(s.Sim, "admin2", adminIPBlock+".2", cluster.ModelE450, cluster.RoleAdmin, s.Topo.Name, s.Topo.Geo)
	s.DC.Add(admin1)
	s.DC.Add(admin2)
	s.attach(admin1)
	s.attach(admin2)
	issl := s.buildISSL()
	adminLSF := s.LSF
	if s.Opts.NoBatchRescue {
		adminLSF = nil
	}
	pair, err := adminsrv.New(adminsrv.Config{
		Sim: s.Sim, Primary: admin1, Standby: admin2, Pool: fsim.NewVolume(),
		Networks: s.networks(), Dir: s.Dir, LSF: adminLSF,
		Registry: s.Registry, Notify: s.Bus, ISSL: issl,
		OncallEmail: "oncall@" + s.Topo.Name, AgentPeriod: s.Opts.CronPeriod,
	})
	if err != nil {
		return fmt.Errorf("administration pair: %w", err)
	}
	s.Admin = pair

	if s.Opts.BaselineMonitors {
		s.deployManual()
	}

	bridge := &agents.RegistryBridge{Reg: s.Registry}
	rng := s.Sim.Rand().Fork(0xa9e0)
	for _, h := range s.DC.Hosts() {
		if h.Role == cluster.RoleAdmin {
			continue
		}
		if err := s.deployHostAgents(h, bridge, pair, rng); err != nil {
			return fmt.Errorf("host %s: %w", h.Name, err)
		}
	}
	return nil
}

// scheduleAgent wires one agent's cron onto a heap ticker of its own, the
// paper's per-host Unix cron. Under AgentSlots the phase draw is quantized
// onto the slot grid instead, and the cron joins its slot's bucket on the
// site's agent wheel, where the slot's agents run one after another in
// deployment order.
func (s *Site) scheduleAgent(a *agent.Agent, phase, period simclock.Time) {
	if s.Opts.AgentSlots > 0 {
		if s.agentWheel == nil {
			s.agentWheel = simclock.NewWheel(s.Sim)
		}
		a.ScheduleOn(s.agentWheel, agent.QuantizePhase(phase, period, s.Opts.AgentSlots), period)
		return
	}
	a.Schedule(s.Sim, phase, period)
}

func (s *Site) networks() []*netsim.Network {
	if s.Private != nil {
		return []*netsim.Network{s.Private, s.Public}
	}
	return []*netsim.Network{s.Public}
}

// deployHostAgents installs the selected agent set on one host, phased
// randomly within the cron period so the site's agents don't all wake at
// the same instant.
func (s *Site) deployHostAgents(h *cluster.Host, bridge *agents.RegistryBridge,
	pair *adminsrv.Pair, rng *simclock.Rand) error {
	router := netsim.NewRouter(s.networks()...)
	baseCfg := func() agent.Config {
		return agent.Config{
			Host:       h,
			Services:   s.Dir,
			Notify:     s.Bus,
			Trace:      s.Trace,
			AdminEmail: "oncall@" + s.Topo.Name,
			Detected:   bridge.Detected(h.Name),
			Repaired:   bridge.Repaired(h.Name),
			Report: func(kind, payload string) {
				_, _ = router.Send(netsim.Message{From: h.Name, To: adminsrv.VIP, Kind: kind, Payload: payload})
			},
		}
	}
	add := func(a *agent.Agent, err error) error {
		if err != nil {
			return err
		}
		s.Agents = append(s.Agents, a)
		s.scheduleAgent(a, rng.UniformDuration(0, s.Opts.CronPeriod), s.Opts.CronPeriod)
		pair.Watch(h, a.Name())
		return nil
	}
	for _, sv := range s.Dir.OnHost(h.Name) {
		if err := add(agents.NewServiceAgent(baseCfg(), sv)); err != nil {
			return fmt.Errorf("service agent for %s: %w", sv.Spec.Name, err)
		}
	}
	if err := add(agents.NewStatusAgent(baseCfg())); err != nil {
		return fmt.Errorf("status agent: %w", err)
	}
	if err := add(agents.NewPerformanceAgent(baseCfg())); err != nil {
		return fmt.Errorf("performance agent: %w", err)
	}
	if err := add(agents.NewNetworkAgent(baseCfg(), s.networks()...)); err != nil {
		return fmt.Errorf("network agent: %w", err)
	}
	if s.Opts.AgentSet == AgentsFull {
		if err := add(agents.NewCPUAgent(baseCfg())); err != nil {
			return fmt.Errorf("cpu agent: %w", err)
		}
		if err := add(agents.NewMemoryAgent(baseCfg())); err != nil {
			return fmt.Errorf("memory agent: %w", err)
		}
		if err := add(agents.NewDiskAgent(baseCfg())); err != nil {
			return fmt.Errorf("disk agent: %w", err)
		}
		if err := add(agents.NewHardwareAgent(baseCfg())); err != nil {
			return fmt.Errorf("hardware agent: %w", err)
		}
		for _, sv := range s.Dir.OnHost(h.Name) {
			switch sv.Spec.Kind {
			case svc.KindOracle, svc.KindSybase:
				if err := add(agents.NewDatabaseAgent(baseCfg(), sv)); err != nil {
					return fmt.Errorf("database agent for %s: %w", sv.Spec.Name, err)
				}
			case svc.KindFront:
				// The paper runs the end-to-end dummy transaction every
				// 15–30 minutes; schedule accordingly rather than at the
				// cron period.
				a, err := agents.NewEndToEndAgent(baseCfg(), sv, 2*simclock.Minute)
				if err != nil {
					return fmt.Errorf("end-to-end agent for %s: %w", sv.Spec.Name, err)
				}
				s.Agents = append(s.Agents, a)
				s.scheduleAgent(a, rng.UniformDuration(0, 15*simclock.Minute), 20*simclock.Minute)
				pair.Watch(h, a.Name())
			}
		}
	}
	return nil
}

// buildISSL compiles the manually-maintained index from the topology.
// Sites larger than the ISSL capacity keep the first 200 entries, exactly
// the maintenance headache the paper concedes ("manually updated").
func (s *Site) buildISSL() *ontology.ISSL {
	issl := &ontology.ISSL{}
	for _, h := range s.DC.Hosts() {
		var names []string
		for _, sv := range s.Dir.OnHost(h.Name) {
			names = append(names, sv.Spec.Name)
		}
		if err := issl.Add(ontology.ISSLEntry{Server: h.Name, IP: h.IP, Services: names}); err != nil {
			break
		}
	}
	return issl
}

// wireRepairPipeline connects first detections to the human repair path
// for faults agents cannot fix (all faults, in manual mode). A repair that
// cannot complete yet — typically a service fix blocked behind a dead host
// — is retried until it takes: the on-call team does not go home with a
// ticket open.
func (s *Site) wireRepairPipeline() {
	var attempt func(f *faultinject.Fault, delay simclock.Time)
	attempt = func(f *faultinject.Fault, delay simclock.Time) {
		s.Sim.After(delay, "manual-repair:"+f.Aspect, func(now2 simclock.Time) {
			if !s.Registry.ResolveFault(f, now2, "oncall-admin") && !f.Incident.Resolved {
				attempt(f, s.Sim.Rand().Jitter(2*simclock.Hour, 0.5))
			}
		})
	}
	s.Registry.OnDetected = func(f *faultinject.Fault, now simclock.Time) {
		if s.Opts.Mode == ModeAgents && !f.HumanOnly {
			return // the agents own this repair
		}
		attempt(f, s.Team.DispatchDelay(now, f.Category, f.Host, f.Aspect))
	}
}
