// Package workload generates the financial site's offered load (§4):
// analysts running data mining, financial projections, model evaluations
// and market-trend simulations interactively during the day; large batch
// jobs submitted through LSF — with the server hand-picked by the user, the
// practice whose failure modes motivate the DGSPL — heaviest overnight; and
// market data feeds arriving around the clock from international sites.
package workload

import (
	"math"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/lsf"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// DiurnalShape reports the fraction of peak interactive load offered at t:
// near zero before 06:00, ramping to 1.0 across the trading day, with a
// lunchtime dip, decaying in the evening; weekends run at 15%.
func DiurnalShape(t simclock.Time) float64 {
	if t.IsWeekend() {
		return 0.15
	}
	h := float64(t.HourOfDay()) + float64(t%simclock.Hour)/float64(simclock.Hour)
	switch {
	case h < 6:
		return 0.05
	case h < 9:
		return 0.05 + 0.95*(h-6)/3
	case h < 17:
		// Trading day with a shallow lunch dip around 13:00.
		dip := 0.15 * math.Exp(-(h-13)*(h-13)/2)
		return 1.0 - dip
	case h < 22:
		return 1.0 - 0.85*(h-17)/5
	default:
		return 0.15
	}
}

// Config sizes the generator.
type Config struct {
	// PeakAnalysts is the number of concurrent interactive analysts at the
	// top of the day, spread over the front-end tier.
	PeakAnalysts int
	// DayJobsPerHour is the batch arrival rate at peak, split across the
	// spec's classes (a bursting arrival submits more than one job).
	DayJobsPerHour float64
	// OvernightJobs is the size of the 22:00 batch drop.
	OvernightJobs int
	// JobWork is the mean job duration on a reference server.
	JobWork simclock.Time
}

// DefaultConfig returns a load shape proportionate to the paper's site.
func DefaultConfig() Config {
	return Config{
		PeakAnalysts:   300,
		DayJobsPerHour: 12,
		OvernightJobs:  40,
		JobWork:        2 * simclock.Hour,
	}
}

// TierLoad is one tier's resolved workload-domain coefficients, compiled
// by the site builder from the topology's per-tier workload specs (times
// any per-tier load scale). Every field is a multiplicative weight; the
// default domain is all ones (DefaultTierLoad).
type TierLoad struct {
	Share float64 // interactive analyst-share weight
	Batch float64 // LSF-target batch-submission weight
	Feed  float64 // market-feed load multiplier (transaction hosts)
	Amp   float64 // diurnal amplitude: 1 = site shape, 0 = flat at peak
}

// DefaultTierLoad is the coefficients of an unspecified tier.
func DefaultTierLoad() TierLoad { return TierLoad{Share: 1, Batch: 1, Feed: 1, Amp: 1} }

// Generator drives load into a datacentre: a weighted multi-domain
// scheduler in which interactive ambience, batch submission and feed load
// each draw per tier domain, and day batch work arrives through the
// installed workload spec's arrival classes (PaperSpec unless SetSpec
// installs another). Without domains (SetDomains never called) every
// host and target falls in the single global domain.
type Generator struct {
	sim  *simclock.Sim
	rng  *simclock.Rand
	cfg  Config
	dc   *cluster.Datacentre
	dir  *svc.Directory
	lsfc *lsf.Cluster

	dbNames []string // LSF execution targets users pick from
	jobSeq  int

	// Domain state (nil maps = single global domain). Compiled once from
	// the topology; Reset keeps it, since reuse cannot change a topology.
	tierOf  map[string]string   // host name -> tier name
	tiers   map[string]TierLoad // tier name -> resolved coefficients
	targetW []float64           // per-dbNames submission weight (nil = uniform)
	// noTargets records an all-zero batch weighting: submissions stop
	// entirely, as if the pool were empty.
	noTargets bool

	// Spec state. New installs PaperSpec; SetSpec replaces it once from
	// the topology/options, and Reset keeps it, like the domains.
	spec Spec

	// Refresh tables: the hosts the 15-minute refresh retargets, one
	// table per role in the datacentre's ByRole order (so the per-host
	// draws keep their order), each entry carrying its host's domain
	// coefficients, and the front-end share total the analyst split
	// divides by. New and SetDomains compile them from the hosts
	// registered then; Reset keeps them, like the domains.
	fe, db, tx []hostLoad
	sumShare   float64

	// feedApplied tracks the feed disk activity currently applied per
	// transaction host, parallel to tx, so refreshFeed can re-apply load
	// a crash wiped and track surge windows by delta. Reset zeroes it.
	feedApplied []float64

	// Counters for reports.
	JobsSubmitted int
}

// hostLoad is one refresh-table entry: a host and its domain
// coefficients.
type hostLoad struct {
	h  *cluster.Host
	tl TierLoad
}

// classState is one arrival class's live scheduling state: its spec and
// a dedicated stream fork (so class draws interleave identically at any
// worker or shard count). The event labels and callbacks are built once
// per class, not per arrival.
type classState struct {
	spec ClassSpec
	rng  *simclock.Rand

	idleLabel, redrawLabel, arriveLabel string
	reschedule, arrive                  func(simclock.Time)
}

// New builds a generator over the datacentre offering PaperSpec. dbNames
// are the database service names users submit jobs to; pass the LSF
// cluster's targets. The interactive and feed load goes to the front-end,
// database and transaction hosts registered in dc now: a host added
// later gets none.
func New(sim *simclock.Sim, cfg Config, dc *cluster.Datacentre, dir *svc.Directory,
	lsfc *lsf.Cluster, dbNames []string) *Generator {
	g := &Generator{
		sim: sim, rng: sim.Rand().Fork(0x301d), cfg: cfg,
		dc: dc, dir: dir, lsfc: lsfc, dbNames: dbNames,
		spec: PaperSpec(),
	}
	g.compile()
	return g
}

// SetDomains installs the compiled per-tier workload domains: tierOf maps
// host names to tier names and tiers carries each tier's resolved
// coefficients (hosts or tiers missing from the maps default to all-ones).
// Call it before Start; the domains survive Reset, since they derive from
// the topology, which site reuse cannot change. Passing nil maps keeps
// the single global domain.
//
// Note that installing domains changes the generator's random-stream
// consumption (batch targets switch from an index draw to a weighted
// draw), even when every weight is 1.
func (g *Generator) SetDomains(tierOf map[string]string, tiers map[string]TierLoad) {
	g.tierOf = tierOf
	g.tiers = tiers
	g.targetW = nil
	g.noTargets = false
	g.compile()
	if tiers == nil {
		return
	}
	g.targetW = make([]float64, len(g.dbNames))
	total := 0.0
	for i, name := range g.dbNames {
		g.targetW[i] = g.loadFor(g.targetHost(name)).Batch
		total += g.targetW[i]
	}
	g.noTargets = len(g.dbNames) > 0 && total <= 0
}

// SetSpec replaces the installed workload spec (PaperSpec by default)
// with a validated one: its classes' interarrival chains carry the day
// batch work, and its surge scenarios modulate arrivals, ambience and
// feed load. Call it before Start; like the domains, the spec survives
// Reset, since it derives from the topology/options, which site reuse
// cannot change.
func (g *Generator) SetSpec(s Spec) {
	g.spec = s
}

// targetHost resolves an LSF target's host name through the directory
// (falling back to the service name, which then maps to the default
// domain).
func (g *Generator) targetHost(service string) string {
	if g.dir != nil {
		if sv := g.dir.Get(service); sv != nil {
			return sv.Host.Name
		}
	}
	return service
}

// loadFor resolves one host's domain coefficients.
func (g *Generator) loadFor(host string) TierLoad {
	if g.tiers == nil {
		return DefaultTierLoad()
	}
	if tl, ok := g.tiers[g.tierOf[host]]; ok {
		return tl
	}
	return DefaultTierLoad()
}

// shaped applies a domain's diurnal amplitude to the site shape: 1 keeps
// the shape bit-identically, 0 flattens the domain to constant peak load,
// larger amplitudes exaggerate the swing (clamped at zero).
func shaped(shape, amp float64) float64 {
	if amp == 1 {
		return shape
	}
	s := 1 - amp*(1-shape)
	if s < 0 {
		return 0
	}
	return s
}

// Reset returns the generator to the state New leaves it in, drawing a
// fresh stream fork exactly as New does. The caller passes the reseeded
// simulation's Rand; the fork label matches New so a reset generator
// replays the same submissions a fresh one would. Site reuse calls this
// between trials, then Start begins load generation anew.
func (g *Generator) Reset(parent *simclock.Rand) {
	g.rng = parent.Fork(0x301d)
	g.jobSeq = 0
	g.JobsSubmitted = 0
	clear(g.feedApplied)
}

// Start begins offering load: interactive ambience and feed load
// refreshed every 15 minutes from the first tick (at the current sim
// time), so recovered hosts get their feed load back; day batch work
// through the spec's per-class interarrival chains; and the overnight
// drop at 22:00.
func (g *Generator) Start() {
	g.sim.Every(g.sim.Now(), 15*simclock.Minute, "workload-interactive", g.refreshInteractive)
	g.startClasses()
	g.sim.Every(g.nextTenPM(), simclock.Day, "workload-overnight", g.submitOvernightBatch)
}

// compile builds the refresh tables from the datacentre's hosts and the
// installed domains.
func (g *Generator) compile() {
	table := func(role cluster.Role) []hostLoad {
		var t []hostLoad
		for _, h := range g.dc.ByRole(role) {
			t = append(t, hostLoad{h: h, tl: g.loadFor(h.Name)})
		}
		return t
	}
	g.fe = table(cluster.RoleFrontEnd)
	g.db = table(cluster.RoleDatabase)
	g.tx = table(cluster.RoleTransaction)
	g.sumShare = 0
	for _, e := range g.fe {
		g.sumShare += e.tl.Share
	}
	g.feedApplied = make([]float64, len(g.tx))
}

func (g *Generator) nextTenPM() simclock.Time {
	now := g.sim.Now()
	today := now - now%simclock.Day + 22*simclock.Hour
	if today <= now {
		today += simclock.Day
	}
	return today
}

// refreshInteractive retargets ambient load on front-end and database
// hosts to the diurnal shape: analysts hammering GUIs and ad-hoc queries.
// Analysts spread over the front-end hosts proportionally to their tier's
// share; database and transaction ambience scale by the tier's share and
// feed weights, each under the tier's own diurnal amplitude. With every
// weight at its default the arithmetic reduces exactly (multiplications
// by 1.0 are bit-exact) to the single global rule.
func (g *Generator) refreshInteractive(now simclock.Time) {
	shape := DiurnalShape(now)
	// Surge multipliers: exactly 1 outside every surge window, so the
	// trailing multiplications below are bit-exact no-ops there.
	amb, feed := g.spec.ambienceFactor(now), g.spec.feedFactor(now)
	// Down hosts keep their share of the analyst population (users do not
	// know the box is dead), matching the pre-domain even split: sumShare
	// counts every front-end host.
	for _, e := range g.fe {
		if e.h.Up() {
			// Each analyst costs ~0.02 CPUs on the front end. With every
			// front-end share at 0 there are no analysts to spread —
			// guard the 0/0, which would otherwise poison the host's CPU
			// accounting with NaN.
			perHost := 0.0
			if g.sumShare > 0 {
				perHost = float64(g.cfg.PeakAnalysts) * e.tl.Share / g.sumShare
			}
			e.h.SetAmbientLoad(shaped(shape, e.tl.Amp) * perHost * 0.02 * g.rng.Jitterf(0.2) * amb)
		}
	}
	for _, e := range g.db {
		if e.h.Up() {
			// Ad-hoc queries: a modest share of each database box.
			e.h.SetAmbientLoad(shaped(shape, e.tl.Amp) * 0.25 * float64(e.h.Model.CPUs) * e.tl.Share * g.rng.Jitterf(0.3) * amb)
		}
	}
	for _, e := range g.tx {
		if e.h.Up() {
			e.h.SetAmbientLoad(shaped(shape, e.tl.Amp) * 0.3 * float64(e.h.Model.CPUs) * e.tl.Feed * g.rng.Jitterf(0.25) * feed)
		}
	}
	g.refreshFeed(now, feed)
}

// submitOvernightBatch drops the big overnight run at 22:00 — the jobs
// whose mid-run database crashes dominate the paper's downtime.
func (g *Generator) submitOvernightBatch(now simclock.Time) {
	if g.lsfc == nil || len(g.dbNames) == 0 || g.noTargets {
		return
	}
	for i := 0; i < g.cfg.OvernightJobs; i++ {
		g.submitOne(now, true)
	}
}

// pickTarget draws the execution target a user hand-picks: uniform over
// the pool in the global domain, weighted by the target tier's batch
// intensity when domains are installed.
func (g *Generator) pickTarget() string {
	if g.targetW == nil {
		return g.dbNames[g.rng.Intn(len(g.dbNames))]
	}
	return g.dbNames[g.rng.Pick(g.targetW)]
}

// submitOne submits a job the way the site's users did: hand-picking a
// database server. Users are imperfect: mostly they pick a random server
// (no knowledge of current load), which is exactly the behaviour the paper
// blames for overloaded servers crashing mid-job.
func (g *Generator) submitOne(now simclock.Time, overnight bool) {
	g.jobSeq++
	name := "analysis-" + strconv.Itoa(g.jobSeq)
	user := "analyst" + strconv.Itoa(g.rng.Intn(50)+1)
	target := g.pickTarget()
	work := g.rng.Jitter(g.cfg.JobWork, 0.5)
	cpu := 0.5 + g.rng.Float64()*1.5
	mem := 128 + g.rng.Float64()*512
	if overnight {
		work *= 2
		cpu *= 1.5
	}
	g.lsfc.Submit(name, user, target, cpu, mem, 0.1, work)
	g.JobsSubmitted++
}

// refreshFeed reconciles each transaction host's feed disk activity with
// the steady demand market feeds currently offer (domain feed weight ×
// surge factor), applying only the delta. Crash() zeroes a host's disk
// activity, so a host seen down — or seen up with an uptime shorter
// than the refresh interval, meaning it crashed and recovered entirely
// between two ticks — has lost whatever was applied and gets the full
// amount again. Ticks are 15 minutes apart, so Uptime() < one interval
// is an exact reboot-since-last-tick test.
func (g *Generator) refreshFeed(now simclock.Time, surge float64) {
	for i, e := range g.tx {
		if !e.h.Up() {
			g.feedApplied[i] = 0
			continue
		}
		applied := g.feedApplied[i]
		if e.h.Uptime() < 15*simclock.Minute {
			applied = 0
		}
		want := 0.2 * e.tl.Feed * surge
		if want != applied {
			e.h.AddDiskActivity(want - applied)
			g.feedApplied[i] = want
		}
	}
}

// --- Spec-driven arrival classes ---

// maxClassDelay caps how far ahead a class arrival is scheduled. Rates
// are frozen at draw time, so an overnight draw could otherwise sleep
// through the whole morning ramp; instead the chain wakes after at most
// two hours, discards the stale draw, and redraws at the current rate.
// (For Poisson arrivals the discipline is exact — the exponential is
// memoryless; for Gamma/Weibull it is the spec engine's documented
// approximation.)
const maxClassDelay = 2 * simclock.Hour

// idleClassRecheck is how often a class whose current rate is zero
// (amplitude-clamped shape) looks again, without consuming a draw.
const idleClassRecheck = 15 * simclock.Minute

// startClasses forks one stream per arrival class — labelled by class
// position, so identical specs replay identically — and schedules each
// class's first arrival.
func (g *Generator) startClasses() {
	for i, c := range g.spec.Classes {
		cs := &classState{
			spec:        c,
			rng:         g.rng.Fork(0xc1a5 + uint64(i)),
			idleLabel:   "workload-class-idle:" + c.Name,
			redrawLabel: "workload-class-redraw:" + c.Name,
			arriveLabel: "workload-class:" + c.Name,
		}
		cs.reschedule = func(simclock.Time) { g.scheduleClass(cs) }
		cs.arrive = func(t simclock.Time) { g.classArrive(cs, t) }
		g.scheduleClass(cs)
	}
}

// classRate is the class's current submission rate in jobs/hour: its
// share of the configured rate, under its own diurnal amplitude, times
// any surge windows covering it.
func (g *Generator) classRate(cs *classState, now simclock.Time) float64 {
	return g.cfg.DayJobsPerHour * cs.spec.Share *
		shaped(DiurnalShape(now), cs.spec.amp()) *
		g.spec.classFactor(cs.spec.Name, now)
}

// scheduleClass draws the class's next interarrival at the current rate
// and schedules the arrival, re-evaluating instead of submitting when
// the draw lands beyond maxClassDelay.
func (g *Generator) scheduleClass(cs *classState) {
	now := g.sim.Now()
	rate := g.classRate(cs, now)
	if rate <= 0 {
		g.sim.PostAfter(idleClassRecheck, cs.idleLabel, cs.reschedule)
		return
	}
	mean := simclock.Time(float64(simclock.Hour) / rate)
	delay := interarrival(cs.rng, cs.spec, mean)
	if delay > maxClassDelay {
		g.sim.PostAfter(maxClassDelay, cs.redrawLabel, cs.reschedule)
		return
	}
	g.sim.PostAfter(delay, cs.arriveLabel, cs.arrive)
}

// classArrive submits the class's batch work — one job, plus Burst more
// when the class's burst modifier fires — and chains the next arrival.
func (g *Generator) classArrive(cs *classState, now simclock.Time) {
	if g.lsfc != nil && len(g.dbNames) > 0 && !g.noTargets {
		n := 1
		if cs.spec.Burst > 0 && cs.rng.Float64() < cs.spec.BurstProb {
			n += cs.spec.Burst
		}
		for i := 0; i < n; i++ {
			g.submitOne(now, false)
		}
	}
	g.scheduleClass(cs)
}
