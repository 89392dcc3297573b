package qoscluster

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/svc"
)

// A Topology declares a site as data: ordered tiers of hosts, each with a
// role, a cyclic hardware mix, an IP block and the service templates
// deployed across its hosts. NewSite turns a Topology into a running
// scenario; PaperTopology and SmallTopology are the two canned values the
// paper's evaluation uses, and RegisterTopology / LoadTopology let
// callers add their own — in Go or as a JSON file — and select them by
// name (`qossim -site <name|file.json>`).
type Topology struct {
	// Name identifies the topology: it is the registry key, the campaign
	// site label, and the datacentre name hosts carry.
	Name string `json:"name"`
	Geo  string `json:"geo"`
	// Tiers deploy in order; host and service construction order (and
	// therefore the simulation's RNG consumption) is fully determined by
	// the declaration, so the same topology always builds the same site.
	Tiers []Tier `json:"tiers"`
	// Probes, when non-nil, enables the batched probe dispatcher: every
	// service is health-probed once per cycle by per-tier coalesced batch
	// schedules instead of per-service events — the engine that makes
	// datacentre-scale sites tractable. nil (every pre-existing topology)
	// changes nothing: sites without a spec schedule no probes and stay
	// byte-identical to the pre-probe engine.
	Probes *ProbeSpec `json:"probes,omitempty"`
	// Workload optionally names a registered statistical workload spec
	// (workload.RegisterSpec / `-workload file.json`) whose per-class
	// interarrival processes and surge scenarios drive the site's batch
	// submissions. The name resolves when the site is built — not at
	// Validate — so a topology may name a spec loaded from a file after
	// the topology itself. Empty (every built-in topology) runs the
	// generator's default, the `paper` spec.
	Workload string `json:"workload,omitempty"`
}

// DefaultProbeSlots is the per-tier batch count a ProbeSpec with Slots 0
// gets: enough phase spread to avoid a thundering herd, few enough that a
// tier of hundreds of services still coalesces to a handful of scheduler
// events per cycle.
const DefaultProbeSlots = 8

// ProbeSpec configures the site-wide probe dispatcher. Each cycle, every
// tier's member services are probed exactly once, split across Slots
// evenly-phased batches; one scheduler event per (tier, slot) walks its
// contiguous slice of members. The zero value means defaults everywhere.
type ProbeSpec struct {
	// Slots is the number of coalesced batches per tier per cycle
	// (0 = DefaultProbeSlots).
	Slots int `json:"slots,omitempty"`
	// PeriodMinutes is the probe cycle length in minutes (0 = the agents'
	// 5-minute cron).
	PeriodMinutes int `json:"period_minutes,omitempty"`
}

func (ps *ProbeSpec) validate() error {
	if ps == nil {
		return nil
	}
	if ps.Slots < 0 || ps.Slots > 4096 {
		return fmt.Errorf("probes: %d slots out of range [0, 4096]", ps.Slots)
	}
	if ps.PeriodMinutes < 0 || ps.PeriodMinutes > 1440 {
		return fmt.Errorf("probes: period %d minutes out of range [0, 1440]", ps.PeriodMinutes)
	}
	return nil
}

// Tier is one homogeneous-role block of hosts.
type Tier struct {
	// Name labels the tier and prefixes its host names (db -> db001...).
	Name string `json:"name"`
	// Role is the hosts' function: "database", "transaction" or
	// "frontend". ("admin" is reserved: administration hosts are added by
	// ModeAgents itself.)
	Role  string `json:"role"`
	Hosts int    `json:"hosts"`
	// Hardware is the cyclic model mix: host i runs Hardware[i%len].
	// Model names come from cluster.Models (E10K, E4500, E450, E220R,
	// Ultra10, HP-K, HP-T, SP2, linux-x86).
	Hardware []string `json:"hardware"`
	// IPBlock is the tier's base /24 prefix ("10.2.0"); host i gets
	// .i+1. A tier larger than 254 hosts spans consecutive /24 blocks by
	// incrementing the third octet ("10.2.0", "10.2.1", ...), so one
	// declared block serves a datacentre-scale tier; Validate rejects
	// spans that run past .255 or overlap another tier's span. "10.1.0"
	// is reserved for the administration tier.
	IPBlock string `json:"ip_block"`
	// Services are deployed per host, in order.
	Services []ServiceTemplate `json:"services,omitempty"`
	// Workload optionally scopes the site's offered load for this tier.
	// nil inherits the single global workload rule (every tier weight 1).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Faults optionally scopes the fault campaign for this tier. nil
	// means weight 1 for every category with no blackout windows.
	Faults *FaultsSpec `json:"faults,omitempty"`
}

// WorkloadSpec is a tier's workload domain: how the site's offered load
// lands on this tier relative to the others. Every field is a
// multiplicative weight defaulting to 1; nil fields inherit the default,
// so a spec can adjust one axis without restating the rest. Weight 0 is
// explicit exclusion. A topology in which no tier declares a spec
// installs no domains and offers the single global load.
type WorkloadSpec struct {
	// AnalystShare weights the tier's slice of interactive analyst load:
	// front-end-role hosts split the configured peak-analyst population
	// proportionally to their tier's share, and database-host ambient
	// query load on the tier scales by it directly. (Transaction-host
	// ambience is feed processing and follows FeedWeight instead.)
	AnalystShare *float64 `json:"analyst_share,omitempty"`
	// BatchIntensity weights the tier's LSF targets in batch-submission
	// draws — the day trickle and the 22:00 overnight drop alike. 0
	// removes the tier's targets from the submission pool (they still
	// serve cross-tier dependencies and batch rescue).
	BatchIntensity *float64 `json:"batch_intensity,omitempty"`
	// FeedWeight scales the market-data feed load on the tier's
	// transaction-role hosts (ambient CPU and disk activity).
	FeedWeight *float64 `json:"feed_weight,omitempty"`
	// DiurnalAmplitude scales the tier's day/night swing around the peak:
	// 1 follows the site's diurnal shape, 0 flattens the tier to constant
	// peak-level load (a 24h estate), values up to 2 exaggerate the
	// swing (the shape clamps at zero load).
	DiurnalAmplitude *float64 `json:"diurnal_amplitude,omitempty"`
}

// FaultsSpec is a tier's fault domain: how the site-wide fault campaign
// lands on this tier. The campaign's category arrival processes are
// unchanged; domains bias which tier each arrival breaks. Weights are
// relative shares over the tiers the category can actually break —
// tiers with nothing the category's injector targets (no LSF targets
// for mid-crash, no front-end services for front-end, ...) are excluded
// automatically, so a weight on the only eligible tier is a no-op.
type FaultsSpec struct {
	// Rates maps a Figure-2 category name (e.g. "mid-crash", "human") to
	// this tier's selection-weight multiplier for that category. Unlisted
	// categories keep weight 1; 0 excludes the tier from a category.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Only restricts the tier to the listed categories: any category not
	// named gets weight 0 here. Empty means no restriction.
	Only []string `json:"only,omitempty"`
	// Blackouts are recurring daily windows during which no fault lands
	// on the tier; arrivals drawn inside one slide forward past its end,
	// the same first-order bias as the campaign's arrival windows.
	Blackouts []Blackout `json:"blackouts,omitempty"`
}

// Blackout is a recurring daily hour window [FromHour, ToHour) in which
// a tier receives no fault arrivals. ToHour <= FromHour wraps past
// midnight, so {22, 6} covers the overnight hours.
type Blackout struct {
	FromHour int `json:"from_hour"`
	ToHour   int `json:"to_hour"`
}

// Weight is a convenience for building WorkloadSpec values in Go: the
// optional weight fields are pointers (absent means "inherit default 1"),
// and Weight(v) is the literal-friendly way to set one.
func Weight(v float64) *float64 { return &v }

// validWeight vets one optional weight field.
func validWeight(tier, field string, p *float64, max float64) error {
	if p == nil {
		return nil
	}
	if math.IsNaN(*p) || math.IsInf(*p, 0) || *p < 0 || *p > max {
		return fmt.Errorf("tier %q: workload %s %v out of range [0, %g]", tier, field, *p, max)
	}
	return nil
}

func (ws *WorkloadSpec) validate(tier string) error {
	if ws == nil {
		return nil
	}
	if err := validWeight(tier, "analyst_share", ws.AnalystShare, 1e6); err != nil {
		return err
	}
	if err := validWeight(tier, "batch_intensity", ws.BatchIntensity, 1e6); err != nil {
		return err
	}
	if err := validWeight(tier, "feed_weight", ws.FeedWeight, 1e6); err != nil {
		return err
	}
	return validWeight(tier, "diurnal_amplitude", ws.DiurnalAmplitude, 2)
}

// knownCategory reports whether name is one of the Figure-2 categories.
func knownCategory(name string) bool {
	return slices.Contains(metrics.Categories, metrics.Category(name))
}

func categoryNames() string {
	names := make([]string, len(metrics.Categories))
	for i, c := range metrics.Categories {
		names[i] = string(c)
	}
	return strings.Join(names, ", ")
}

func (fs *FaultsSpec) validate(tier string) error {
	if fs == nil {
		return nil
	}
	// Map iteration is unordered; sort the keys so a multi-error spec
	// always reports the same first problem.
	for _, cat := range slices.Sorted(maps.Keys(fs.Rates)) {
		if !knownCategory(cat) {
			return fmt.Errorf("tier %q: fault rate for unknown category %q (known: %s)", tier, cat, categoryNames())
		}
		if r := fs.Rates[cat]; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("tier %q: fault rate %v for category %q (want a finite multiplier >= 0)", tier, r, cat)
		}
	}
	for _, cat := range fs.Only {
		if !knownCategory(cat) {
			return fmt.Errorf("tier %q: faults.only names unknown category %q (known: %s)", tier, cat, categoryNames())
		}
	}
	covered := [24]bool{}
	for _, b := range fs.Blackouts {
		if b.FromHour < 0 || b.FromHour > 23 || b.ToHour < 0 || b.ToHour > 23 {
			return fmt.Errorf("tier %q: blackout {%d,%d} hours out of range [0,23]", tier, b.FromHour, b.ToHour)
		}
		if b.FromHour == b.ToHour {
			return fmt.Errorf("tier %q: blackout {%d,%d} is a full day; a tier cannot be blacked out around the clock",
				tier, b.FromHour, b.ToHour)
		}
		for h := b.FromHour; h != b.ToHour; h = (h + 1) % 24 {
			covered[h] = true
		}
	}
	for h := 0; ; h++ {
		if h == 24 {
			return fmt.Errorf("tier %q: blackouts cover all 24 hours; faults could never land", tier)
		}
		if !covered[h] {
			break
		}
	}
	return nil
}

// ServiceTemplate stamps one service kind across a tier's hosts.
type ServiceTemplate struct {
	// Kind is the svc.Kind: oracle, sybase, webserver, frontend, lsf,
	// feedhandler.
	Kind string `json:"kind"`
	// Name is the instance-name pattern: "{host}" expands to the host
	// name, a fmt verb (e.g. "ORA-%03d") to the 1-based host ordinal
	// within the tier.
	Name string `json:"name"`
	// Port for host i is Port + i*PortStep (i 0-based), mirroring how the
	// paper's site spread listener ports across a tier.
	Port     int `json:"port,omitempty"`
	PortStep int `json:"port_step,omitempty"`
	// Cycle/Phases select a subset of hosts: with Cycle > 1 the template
	// deploys on host i iff i%Cycle is listed in Phases. The paper's
	// database tier is oracle on phases {0,1,2} and sybase on {3} of a
	// 4-cycle. Cycle 0 or 1 means every host.
	Cycle  int   `json:"cycle,omitempty"`
	Phases []int `json:"phases,omitempty"`
	// DependsOn names another tier: instance i depends on that tier's
	// LSF-target services, round-robin (the paper's front ends each pin
	// one database).
	DependsOn string `json:"depends_on,omitempty"`
	// LSFTarget marks the service as a batch execution target: it gets an
	// LSF slot limit, joins the workload generator's submission pool and
	// serves as the dependency pool for DependsOn.
	LSFTarget bool `json:"lsf_target,omitempty"`
}

// adminIPBlock is where ModeAgents puts the administration pair.
const adminIPBlock = "10.1.0"

// hostsPerBlock is the usable host addresses in one /24 block (.1–.254).
const hostsPerBlock = 254

// splitIPBlock parses a /24 prefix like "10.2.0" into its two-octet
// network prefix ("10.2") and third-octet base (0), rejecting anything
// that is not three in-range numeric octets. Tiers spanning multiple
// blocks increment the base, so it must be genuinely numeric — "10.02.x"
// or "10.two.0" would make the span arithmetic meaningless.
func splitIPBlock(block string) (prefix string, base int, err error) {
	parts := strings.Split(block, ".")
	if len(parts) != 3 {
		return "", 0, fmt.Errorf("IP block %q (want a /24 prefix like \"10.2.0\")", block)
	}
	octets := [3]int{}
	for i, p := range parts {
		n := 0
		if p == "" || len(p) > 3 || (len(p) > 1 && p[0] == '0') {
			return "", 0, fmt.Errorf("IP block %q: octet %q (want a plain decimal 0-255)", block, p)
		}
		for _, r := range p {
			if r < '0' || r > '9' {
				return "", 0, fmt.Errorf("IP block %q: octet %q (want a plain decimal 0-255)", block, p)
			}
			n = n*10 + int(r-'0')
		}
		if n > 255 {
			return "", 0, fmt.Errorf("IP block %q: octet %d out of range 0-255", block, n)
		}
		octets[i] = n
	}
	return parts[0] + "." + parts[1], octets[2], nil
}

// ipBlocks reports how many consecutive /24 blocks the tier's hosts span.
func (t Tier) ipBlocks() int { return (t.Hosts + hostsPerBlock - 1) / hostsPerBlock }

// roleFor maps a tier's declared role onto the cluster role.
func roleFor(role string) (cluster.Role, error) {
	switch role {
	case "database":
		return cluster.RoleDatabase, nil
	case "transaction":
		return cluster.RoleTransaction, nil
	case "frontend":
		return cluster.RoleFrontEnd, nil
	case "admin":
		return "", fmt.Errorf("role %q is reserved for the administration tier ModeAgents adds", role)
	default:
		return "", fmt.Errorf("unknown role %q (want database, transaction or frontend)", role)
	}
}

// appliesTo reports whether the template deploys on the tier's i-th host
// (0-based).
func (st ServiceTemplate) appliesTo(i int) bool {
	if st.Cycle <= 1 {
		return true
	}
	for _, p := range st.Phases {
		if i%st.Cycle == p {
			return true
		}
	}
	return false
}

// instanceName renders the template's name pattern for one host.
func (st ServiceTemplate) instanceName(ord int, host string) string {
	s := strings.ReplaceAll(st.Name, "{host}", host)
	if strings.Contains(s, "%") {
		s = fmt.Sprintf(s, ord)
	}
	return s
}

// Validate checks the topology is buildable: named, at least one tier,
// unique tier names and IP blocks, positive host counts, known roles,
// hardware models and service kinds, in-range phases, unique expanded
// service names, and cross-tier dependencies that resolve to a non-empty
// LSF-target pool.
func (t Topology) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("topology has no name")
	}
	if len(t.Tiers) == 0 {
		return fmt.Errorf("topology %q declares no tiers", t.Name)
	}
	if err := t.Probes.validate(); err != nil {
		return fmt.Errorf("topology %q: %w", t.Name, err)
	}
	// Each tier's hosts occupy a contiguous span of /24 blocks starting at
	// its declared base; spans under the same two-octet prefix must not
	// overlap each other or the reserved administration block.
	type ipSpan struct {
		tier   string
		lo, hi int // inclusive third-octet range
	}
	adminPrefix, adminBase, _ := splitIPBlock(adminIPBlock)
	tierNames := map[string]bool{}
	ipSpans := map[string][]ipSpan{adminPrefix: {{tier: "", lo: adminBase, hi: adminBase}}}
	for _, tier := range t.Tiers {
		if tier.Name == "" {
			return fmt.Errorf("tier with no name")
		}
		if !validTierName(tier.Name) {
			return fmt.Errorf("tier name %q: want a letter followed by letters, digits, '-' or '_' (it prefixes host names and feeds the service name patterns)", tier.Name)
		}
		if tierNames[tier.Name] {
			return fmt.Errorf("duplicate tier name %q", tier.Name)
		}
		tierNames[tier.Name] = true
		if tier.Hosts <= 0 {
			return fmt.Errorf("tier %q: %d hosts (want > 0)", tier.Name, tier.Hosts)
		}
		if _, err := roleFor(tier.Role); err != nil {
			return fmt.Errorf("tier %q: %w", tier.Name, err)
		}
		if len(tier.Hardware) == 0 {
			return fmt.Errorf("tier %q: empty hardware mix", tier.Name)
		}
		for _, model := range tier.Hardware {
			if _, ok := cluster.ModelByName(model); !ok {
				return fmt.Errorf("tier %q: unknown hardware model %q (known: %s)",
					tier.Name, model, strings.Join(modelNames(), ", "))
			}
		}
		prefix, base, err := splitIPBlock(tier.IPBlock)
		if err != nil {
			return fmt.Errorf("tier %q: %w", tier.Name, err)
		}
		span := ipSpan{tier: tier.Name, lo: base, hi: base + tier.ipBlocks() - 1}
		if span.hi > 255 {
			return fmt.Errorf("tier %q: %d hosts spans /24 blocks %s.%d through .%d, exhausting the IP space past .255; lower the block base or split the tier",
				tier.Name, tier.Hosts, prefix, span.lo, span.hi)
		}
		for _, other := range ipSpans[prefix] {
			if span.lo > other.hi || span.hi < other.lo {
				continue
			}
			if other.tier == "" {
				return fmt.Errorf("tier %q: IP block %s is reserved for the administration tier", tier.Name, adminIPBlock)
			}
			return fmt.Errorf("tiers %q and %q share IP block %s.%d (spans .%d-.%d and .%d-.%d overlap)",
				other.tier, tier.Name, prefix, max(span.lo, other.lo), other.lo, other.hi, span.lo, span.hi)
		}
		ipSpans[prefix] = append(ipSpans[prefix], span)
		for _, st := range tier.Services {
			if err := st.validate(tier.Name); err != nil {
				return err
			}
		}
		if err := tier.Workload.validate(tier.Name); err != nil {
			return err
		}
		if err := tier.Faults.validate(tier.Name); err != nil {
			return err
		}
	}
	// Expand the templates: service names must be unique site-wide
	// (svc.Directory is name-keyed), and per-tier LSF-target counts are
	// taken over expanded instances — a target template whose cycle/phases
	// select no host provides nothing.
	// Host names are checked explicitly: the ordinal suffix widens past
	// three digits on large tiers, so digit-suffixed tier names can
	// collide (tier "web" host 2001 is "web2001" — also tier "web2" host
	// 1). The map costs one insert per host and makes the uniqueness
	// argument hold at any scale.
	hostSeen := map[string]string{} // host name -> tier
	seen := map[string]string{}
	targets := map[string]int{} // tier name -> expanded LSF-target instances
	for _, tier := range t.Tiers {
		for i := 0; i < tier.Hosts; i++ {
			host := tier.hostName(i)
			if prev, dup := hostSeen[host]; dup && prev != tier.Name {
				return fmt.Errorf("host name %q expands in both tier %q and tier %q (digit-suffixed tier names collide once ordinals widen; rename a tier)",
					host, prev, tier.Name)
			}
			hostSeen[host] = tier.Name
			for _, st := range tier.Services {
				if !st.appliesTo(i) {
					continue
				}
				name := st.instanceName(i+1, host)
				if prev, dup := seen[name]; dup {
					return fmt.Errorf("service name %q expands on both %s and %s (name patterns need a %%d ordinal or {host})",
						name, prev, host)
				}
				seen[name] = host
				if st.LSFTarget {
					targets[tier.Name]++
				}
			}
		}
	}
	// Cross-tier dependencies must point at a tier whose expansion
	// actually publishes targets (the dependency pool is round-robined,
	// so an empty one is unusable). A topology with no targets at all is
	// legal — the batch workload just idles and only interactive/feed
	// load is offered.
	for _, tier := range t.Tiers {
		for _, st := range tier.Services {
			if st.DependsOn == "" {
				continue
			}
			if !tierNames[st.DependsOn] {
				return fmt.Errorf("tier %q service %q depends on unknown tier %q", tier.Name, st.Name, st.DependsOn)
			}
			if targets[st.DependsOn] == 0 {
				return fmt.Errorf("tier %q service %q depends on tier %q, which expands to no lsf_target services",
					tier.Name, st.Name, st.DependsOn)
			}
		}
	}
	return nil
}

func (st ServiceTemplate) validate(tier string) error {
	if st.Name == "" {
		return fmt.Errorf("tier %q: service template with no name pattern", tier)
	}
	// fmt reports a malformed pattern (wrong verb, stray %, too many
	// verbs) with a "%!" marker in its output; catch it here instead of
	// shipping garbage service names into reports and DGSPLs.
	if rendered := st.instanceName(1, "host"); strings.Contains(rendered, "%!") {
		return fmt.Errorf("tier %q service %q: bad name pattern (renders as %q); use one integer verb like %%03d or {host}",
			tier, st.Name, rendered)
	}
	if _, err := svc.SpecFor(svc.Kind(st.Kind), "probe", 1); err != nil {
		return fmt.Errorf("tier %q service %q: unknown kind %q", tier, st.Name, st.Kind)
	}
	if st.Cycle < 0 {
		return fmt.Errorf("tier %q service %q: negative cycle %d", tier, st.Name, st.Cycle)
	}
	if st.Cycle > 1 && len(st.Phases) == 0 {
		return fmt.Errorf("tier %q service %q: cycle %d without phases deploys nowhere meaningful; list phases",
			tier, st.Name, st.Cycle)
	}
	if st.Cycle <= 1 && len(st.Phases) > 0 {
		return fmt.Errorf("tier %q service %q: phases %v without a cycle > 1", tier, st.Name, st.Phases)
	}
	for _, p := range st.Phases {
		if p < 0 || p >= st.Cycle {
			return fmt.Errorf("tier %q service %q: phase %d out of range [0,%d)", tier, st.Name, p, st.Cycle)
		}
	}
	return nil
}

// validTierName restricts tier names to a letter followed by letters,
// digits, '-' or '_': the name prefixes host names and flows through the
// service-name fmt pass, so characters like '%' would mangle both.
func validTierName(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case i > 0 && (r >= '0' && r <= '9' || r == '-' || r == '_'):
		default:
			return false
		}
	}
	return name != ""
}

func (t Tier) hostName(i int) string { return fmt.Sprintf("%s%03d", t.Name, i+1) }

// hostIP addresses the tier's i-th host. The first 254 hosts live in the
// declared block (byte-identical to the single-block scheme every
// pre-existing topology used); later hosts spill into consecutive /24
// blocks by incrementing the third octet, as Validate guarantees is safe.
// Validate has parsed every tier's block before the site builds a host.
func (t Tier) hostIP(i int) string {
	if i < hostsPerBlock {
		return fmt.Sprintf("%s.%d", t.IPBlock, i+1)
	}
	prefix, base, _ := splitIPBlock(t.IPBlock)
	return fmt.Sprintf("%s.%d.%d", prefix, base+i/hostsPerBlock, i%hostsPerBlock+1)
}

func (t Tier) hardwareFor(i int) cluster.HardwareModel {
	m, _ := cluster.ModelByName(t.Hardware[i%len(t.Hardware)])
	return m
}

func modelNames() []string {
	names := make([]string, 0, len(cluster.Models))
	for _, m := range cluster.Models {
		names = append(names, m.Name)
	}
	return names
}

// JSON renders the topology in its canonical JSON form — the same shape
// LoadTopology reads, so a topology survives a write/load round trip
// unchanged.
func (t Topology) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// LoadTopology decodes and validates a JSON topology. Unknown fields are
// rejected so a typo'd "hardwares" key fails loudly instead of silently
// deploying defaults.
func LoadTopology(r io.Reader) (Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("decode topology: %w", err)
	}
	// One document per file: trailing content (say, a botched merge
	// concatenating two topologies) must not be silently discarded.
	if _, err := dec.Token(); err != io.EOF {
		return Topology{}, fmt.Errorf("decode topology: trailing data after the topology document")
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// LoadTopologyFile reads a topology JSON file.
func LoadTopologyFile(path string) (Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return Topology{}, err
	}
	defer f.Close()
	t, err := LoadTopology(f)
	if err != nil {
		return Topology{}, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// --- Named-topology registry ---

var (
	topoMu  sync.RWMutex
	topoReg = map[string]Topology{}
)

// RegisterTopology validates a topology and registers it under its Name,
// replacing any earlier registration, so scenarios and campaigns can
// select it with `-site <name>`.
func RegisterTopology(t Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	topoMu.Lock()
	defer topoMu.Unlock()
	topoReg[t.Name] = t
	return nil
}

// TopologyByName looks up a registered topology.
func TopologyByName(name string) (Topology, bool) {
	topoMu.RLock()
	defer topoMu.RUnlock()
	t, ok := topoReg[name]
	return t, ok
}

// TopologyNames lists the registered topologies, sorted.
func TopologyNames() []string {
	topoMu.RLock()
	defer topoMu.RUnlock()
	names := make([]string, 0, len(topoReg))
	for name := range topoReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ResolveTopology returns the named topology, synthesising parameterised
// families on demand: beyond the registered names, "megasite-N" builds,
// registers and returns MegaSiteTopology(N) on first use, so
// `-site megasite-25000` works without a registration step.
func ResolveTopology(name string) (Topology, bool) {
	if t, ok := TopologyByName(name); ok {
		return t, true
	}
	n, ok := megaSiteHosts(name)
	if !ok {
		return Topology{}, false
	}
	t := MegaSiteTopology(n)
	if err := RegisterTopology(t); err != nil {
		return Topology{}, false
	}
	return t, true
}

// megaSiteHosts parses "megasite-N" into its host count, rejecting
// malformed or out-of-range names.
func megaSiteHosts(name string) (int, bool) {
	num, ok := strings.CutPrefix(name, "megasite-")
	if !ok || num == "" || len(num) > 6 || num[0] == '0' {
		return 0, false
	}
	n := 0
	for _, r := range num {
		if r < '0' || r > '9' {
			return 0, false
		}
		n = n*10 + int(r-'0')
	}
	if n < megaSiteMinHosts || n > megaSiteMaxHosts {
		return 0, false
	}
	return n, true
}

func init() {
	mega := MegaSiteTopology(10000)
	mega.Name = "megasite"
	for _, t := range []Topology{
		PaperTopology(), SmallTopology(), WebFarmTopology(), ComputeFarmTopology(), mega,
	} {
		if err := RegisterTopology(t); err != nil {
			panic(err) // built-in topologies must validate
		}
	}
}

// --- Canned topologies ---

// paperShaped builds the paper's three-tier site shape — an
// Oracle/Sybase database tier carrying LSF, a market-data transaction
// tier and a front-end tier pinned to databases — at the given scale.
func paperShaped(name, geo string, db, tx, fe int) Topology {
	return Topology{Name: name, Geo: geo, Tiers: []Tier{
		{
			Name: "db", Role: "database", Hosts: db, IPBlock: "10.2.0",
			Hardware: []string{"E10K", "E4500", "E4500"},
			Services: []ServiceTemplate{
				{Kind: "oracle", Name: "ORA-%03d", Port: 1521, Cycle: 4, Phases: []int{0, 1, 2}, LSFTarget: true},
				{Kind: "sybase", Name: "SYB-%03d", Port: 4100, Cycle: 4, Phases: []int{3}, LSFTarget: true},
				{Kind: "lsf", Name: "LSF-{host}"},
			},
		},
		{
			Name: "tx", Role: "transaction", Hosts: tx, IPBlock: "10.3.0",
			Hardware: []string{"E450", "HP-K", "E220R", "HP-T", "linux-x86", "Ultra10"},
			Services: []ServiceTemplate{
				{Kind: "feedhandler", Name: "FEED-%03d", Port: 7000, PortStep: 1},
			},
		},
		{
			Name: "fe", Role: "frontend", Hosts: fe, IPBlock: "10.4.0",
			Hardware: []string{"SP2"},
			Services: []ServiceTemplate{
				{Kind: "frontend", Name: "FE-%03d", Port: 8000, PortStep: 1, DependsOn: "db"},
			},
		},
	}}
}

// PaperTopology is the paper's full-size evaluation site: 100 database,
// 55 transaction and 60 front-end servers with the §4 hardware spread.
// Use it for structure demonstrations; year-long simulations want
// SmallTopology, whose downtime ledger is equivalent because fault
// arrival rates are site-wide.
func PaperTopology() Topology { return paperShaped("paper", "UK", 100, 55, 60) }

// SmallTopology is the scaled site for long simulations: the fault
// campaign is defined per site, not per host, so category downtime totals
// are unaffected by the scale-down while event counts drop by an order of
// magnitude.
func SmallTopology() Topology { return paperShaped("small", "UK", 6, 2, 3) }

// WebFarmTopology is a front-end-heavy web estate: a small database core
// feeding a large commodity web tier and a GUI tier — the opposite load
// shape to the paper's database-dominated site. Its per-tier domains make
// the divergence real rather than cosmetic: the web tier carries three
// analyst-shares of near-flat interactive load, and the human-error,
// firewall and hardware fault categories land mostly on its commodity
// boxes (fault weights are relative shares over the tiers a category can
// actually break — mid-job crashes always hit the batch core, the only
// tier with execution targets).
func WebFarmTopology() Topology {
	return Topology{
		Name: "webfarm", Geo: "UK",
		Tiers: []Tier{
			{Name: "db", Role: "database", Hosts: 4, IPBlock: "10.2.0",
				Hardware: []string{"E4500"},
				Services: []ServiceTemplate{
					{Kind: "oracle", Name: "ORA-%03d", Port: 1521, LSFTarget: true},
					{Kind: "lsf", Name: "LSF-{host}"},
				},
				Workload: &WorkloadSpec{BatchIntensity: Weight(0.5)},
				Faults:   &FaultsSpec{Rates: map[string]float64{"human": 0.5, "hardware": 0.5}}},
			{Name: "web", Role: "frontend", Hosts: 18, IPBlock: "10.5.0",
				Hardware: []string{"linux-x86", "linux-x86", "SP2"},
				Services: []ServiceTemplate{
					{Kind: "webserver", Name: "WEB-%03d", Port: 8080, PortStep: 1},
				},
				Workload: &WorkloadSpec{AnalystShare: Weight(3), DiurnalAmplitude: Weight(0.5)},
				Faults:   &FaultsSpec{Rates: map[string]float64{"human": 2, "fw/nw": 2.5, "hardware": 2}}},
			{Name: "fe", Role: "frontend", Hosts: 10, IPBlock: "10.4.0",
				Hardware: []string{"SP2"},
				Services: []ServiceTemplate{
					{Kind: "frontend", Name: "FE-%03d", Port: 9000, PortStep: 1, DependsOn: "db"},
				},
				Workload: &WorkloadSpec{AnalystShare: Weight(1.5)}},
		},
	}
}

// Megasite family bounds. The web remainder is cut into chunks of at
// most webChunkHosts so every chunk's /24 span fits one second-octet
// prefix (256 blocks x 254 addresses); the 130000-host ceiling keeps the
// chunk letters within "web-a".."web-z" with plenty of slack.
const (
	megaSiteMinHosts = 100
	megaSiteMaxHosts = 130000
	webChunkHosts    = 60000
)

// MegaSiteTopology is the datacentre-scale site family: a database core
// of ~1% of the hosts (every one an LSF target), a transaction tier of
// ~0.5% and the remainder a commodity web estate, chunked into tiers of
// at most webChunkHosts. The topology opts into the batched probe
// dispatcher (Probes, all defaults) — per-service probe events at this
// scale would dominate the scheduler, and per-host intelliagents are out
// of reach entirely, so megasites run ModeManual with probe-driven
// detection feeding the same repair pipeline.
func MegaSiteTopology(total int) Topology {
	db := total / 100
	if db < 4 {
		db = 4
	}
	tx := total / 200
	if tx < 2 {
		tx = 2
	}
	t := Topology{
		Name: fmt.Sprintf("megasite-%d", total), Geo: "UK",
		Probes: &ProbeSpec{},
		Tiers: []Tier{
			{Name: "db", Role: "database", Hosts: db, IPBlock: "10.8.0",
				Hardware: []string{"E10K", "E4500", "E4500"},
				Services: []ServiceTemplate{
					{Kind: "oracle", Name: "ORA-{host}", Port: 1521, LSFTarget: true},
					{Kind: "lsf", Name: "LSF-{host}"},
				}},
			{Name: "tx", Role: "transaction", Hosts: tx, IPBlock: "10.9.0",
				Hardware: []string{"E450", "HP-K", "linux-x86"},
				Services: []ServiceTemplate{
					{Kind: "feedhandler", Name: "FEED-{host}", Port: 7000},
				}},
		},
	}
	// Chunk names are letter-suffixed ("web-a", "web-b", ...): a digit
	// suffix would collide with widened host ordinals under the explicit
	// host-name check. Each chunk gets its own second-octet prefix.
	for web, idx := total-db-tx, 0; web > 0; idx++ {
		n := web
		if n > webChunkHosts {
			n = webChunkHosts
		}
		t.Tiers = append(t.Tiers, Tier{
			Name: "web-" + string(rune('a'+idx)), Role: "frontend", Hosts: n,
			IPBlock:  fmt.Sprintf("10.%d.0", 16+idx),
			Hardware: []string{"linux-x86", "linux-x86", "SP2"},
			Services: []ServiceTemplate{
				{Kind: "webserver", Name: "WEB-{host}", Port: 8080},
			},
		})
		web -= n
	}
	return t
}

// ComputeFarmTopology is a batch-dominated compute farm: twenty heavy
// execution hosts (every one an LSF target), a token pair of feed
// handlers and a minimal GUI tier. Its per-tier domains put the offered
// load where a farm has it — double batch intensity and a quarter of the
// analyst ambience on the compute tier, running nearly flat around the
// clock — and bias faults the same way: hardware failures cluster on the
// execution hosts (weight 2 over the other tiers), the feed pair enjoys
// an overnight change freeze, and the GUI tier only ever sees front-end,
// human and network errors.
func ComputeFarmTopology() Topology {
	return Topology{
		Name: "computefarm", Geo: "UK",
		Tiers: []Tier{
			{Name: "compute", Role: "database", Hosts: 20, IPBlock: "10.6.0",
				Hardware: []string{"E10K", "E4500", "HP-K", "E4500"},
				Services: []ServiceTemplate{
					{Kind: "oracle", Name: "CDB-%03d", Port: 1521, LSFTarget: true},
					{Kind: "lsf", Name: "LSF-{host}"},
				},
				Workload: &WorkloadSpec{
					AnalystShare:     Weight(0.25),
					BatchIntensity:   Weight(2),
					DiurnalAmplitude: Weight(0.25),
				},
				Faults: &FaultsSpec{Rates: map[string]float64{"hardware": 2}}},
			{Name: "feed", Role: "transaction", Hosts: 2, IPBlock: "10.3.0",
				Hardware: []string{"E450"},
				Services: []ServiceTemplate{
					{Kind: "feedhandler", Name: "FEED-%03d", Port: 7000, PortStep: 1},
				},
				Workload: &WorkloadSpec{FeedWeight: Weight(2)},
				Faults:   &FaultsSpec{Blackouts: []Blackout{{FromHour: 22, ToHour: 6}}}},
			{Name: "fe", Role: "frontend", Hosts: 2, IPBlock: "10.4.0",
				Hardware: []string{"SP2"},
				Services: []ServiceTemplate{
					{Kind: "frontend", Name: "FE-%03d", Port: 8000, PortStep: 1, DependsOn: "compute"},
				},
				Faults: &FaultsSpec{Only: []string{"front-end", "human", "fw/nw"}}},
		},
	}
}
