package qoscluster

import (
	"repro/internal/faultinject"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Mode selects how the site is operated.
type Mode int

// Operation modes.
const (
	// ModeManual is the paper's "before" year: commercial monitoring,
	// operator consoles, on-call administrators, manual repair.
	ModeManual Mode = iota
	// ModeAgents is the paper's "after" year: intelliagents on every
	// host, administration-server pair, DGSPL-driven batch rescue.
	ModeAgents
)

func (m Mode) String() string {
	if m == ModeAgents {
		return "agents"
	}
	return "manual"
}

// AgentSet selects which intelliagents deploy per host in ModeAgents.
type AgentSet int

// Agent deployments.
const (
	// AgentsLean deploys the agents the Figure-2 categories need: service
	// agents, status, performance, network.
	AgentsLean AgentSet = iota
	// AgentsFull adds the cpu/memory/disk resource agents and the
	// hardware agent — the paper's complete taxonomy.
	AgentsFull
)

// Options tune a scenario. The zero value is a usable default (manual
// mode, lean agents, the paper's cron period, paper-calibrated faults);
// NewSite layers functional options (WithSeed, WithMode, ...) over
// it, and campaign trials map their axes onto it directly. The offered
// load is the topology's (its workload spec and per-tier domains, scaled
// to the site's size), which TierLoadScale only multiplies.
type Options struct {
	// Seed drives every random process in the simulation.
	Seed     uint64
	Mode     Mode
	AgentSet AgentSet
	// CronPeriod is X, the agents' wake-up period (default: the paper's 5
	// minutes).
	CronPeriod simclock.Time
	// Faults overrides the default fault campaign (nil = paper-calibrated
	// rates; empty non-nil slice = no faults).
	Faults []faultinject.Spec
	// TierLoadScale multiplies each tier's workload-domain weights —
	// analyst share, batch intensity and feed weight at once, leaving the
	// diurnal amplitude alone — by tier name: the campaign's per-tier
	// load-intensity axis (`-tierload`), the workload twin of
	// TierFaultScale. It multiplies into the tier's Tier.Workload spec.
	TierLoadScale map[string]float64
	// TierFaultScale multiplies each tier's fault selection weight —
	// every category at once — by tier name: the campaign's per-tier
	// fault-intensity axis. It multiplies into the tier's Tier.Faults
	// spec.
	TierFaultScale map[string]float64
	// DisablePrivateNet removes the private agent network (ablation).
	DisablePrivateNet bool
	// NoBatchRescue stops the admin tier resubmitting failed jobs from the
	// DGSPL (ablation of the paper's §4 mechanism).
	NoBatchRescue bool
	// ReferenceProbes runs the probe engine with one independent repeating
	// event per service instead of coalesced batch walks — the baseline
	// TestMegaSite equivalence compares the batched dispatcher against.
	// Meaningless unless the topology declares a probe spec
	// (Topology.Probes).
	ReferenceProbes bool
	// Shards is the intra-trial parallelism degree: the probe engine's
	// batch walks advance on this many goroutines inside each tick window
	// and merge at tick boundaries in a fixed order, so simulated
	// behaviour — and campaign JSON — is byte-identical at any shard
	// count. 0 and 1 both mean the single-goroutine engine; negative or
	// absurd counts are rejected by NewSite. ReferenceProbes walks the
	// probes serially at any count, and agents always run serially.
	Shards int
	// AgentSlots switches agent cron dispatch (ModeAgents) from one
	// continuous random phase per agent to phases quantized onto this many
	// slots per cron period. Each slot's agents share one bucket on a cron
	// wheel and run one after another in deployment order
	// (agent.Agent.ScheduleOn). Unlike Shards this is a model knob:
	// quantizing moves the wake-up instants, so a slotted run is a
	// different (equally valid) trajectory from an unslotted one, and
	// campaigns record it in their JSON. 0 (the default) keeps per-agent
	// phases, each agent on its own cron ticker (agent.Agent.Schedule);
	// byte-identity across shard counts holds at any fixed value.
	AgentSlots int
	// TraceLevel enables the decision-trace recorder: 0 off (the default —
	// a nil recorder, zero cost), 1 records every healing-pipeline decision
	// event, 2 additionally captures diagnosis evidence lines. Tracing
	// consumes no randomness and schedules nothing, so a traced run's
	// simulated behaviour and campaign JSON are byte-identical to an
	// untraced one. Like Shards, it is an execution knob, not a model axis.
	TraceLevel int
	// Counterfactual overrides one diagnose decision's action (see
	// trace.Counterfactual). It needs tracing enabled: the override
	// anchors to the decision's trace event ID, which a re-run of a
	// recorded trial at the recorded trace level reproduces from the seed.
	Counterfactual *trace.Counterfactual
}

// Option is a functional scenario option for NewSite.
type Option func(*Options)

// WithSeed sets the simulation seed.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithMode selects manual or agent operations.
func WithMode(m Mode) Option { return func(o *Options) { o.Mode = m } }

// WithNoFaults disables the background fault campaign — the
// walkthrough-example setting where every fault is injected by hand.
func WithNoFaults() Option { return func(o *Options) { o.Faults = []faultinject.Spec{} } }

// WithTierFaultScale multiplies one tier's resolved fault weight across
// every category (see Options.TierFaultScale) — the per-tier
// fault-intensity knob campaigns sweep as a matrix axis.
func WithTierFaultScale(tier string, scale float64) Option {
	return func(o *Options) {
		if o.TierFaultScale == nil {
			o.TierFaultScale = map[string]float64{}
		}
		o.TierFaultScale[tier] = scale
	}
}

// WithReferenceProbes selects the per-service probe scheduling path that
// the batched dispatcher is equivalence-tested against.
func WithReferenceProbes() Option { return func(o *Options) { o.ReferenceProbes = true } }

// WithShards sets the intra-trial parallelism degree (see Options.Shards):
// n worker goroutines advance per-tier batch work inside each tick window
// with a deterministic merge at tick boundaries. Results are
// byte-identical at any shard count; the win is wall-clock on multi-core
// hardware for probe-heavy megasites.
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithAgentSlots quantizes agent cron phases onto n slots per period and
// runs each slot's agents from one wheel bucket (see Options.AgentSlots).
// This changes the simulated trajectory; it is a model knob, not an
// execution knob.
func WithAgentSlots(n int) Option { return func(o *Options) { o.AgentSlots = n } }

// WithTrace enables the decision-trace recorder at the given level (see
// Options.TraceLevel); Site.TraceEvents returns what it recorded.
func WithTrace(level int) Option { return func(o *Options) { o.TraceLevel = level } }

// WithOptions replaces the whole Options struct — the bridge for callers
// (like campaign trials) that assemble an Options value directly and
// still want the NewSite validation path.
func WithOptions(o Options) Option { return func(dst *Options) { *dst = o } }
