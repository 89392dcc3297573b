// Package adminsrv implements the paper's dedicated administration servers
// (§3.1): an external agent-coordinator pair in a high-availability
// failover configuration sharing a common pool of NFS-mounted disks. The
// active server receives DLSP pushes from every status agent over the
// private network, generates dynamic global service profile lists per
// database type every 15 minutes, sweeps the watched hosts every X+5
// minutes (spotting dead hosts), and manages LSF —
// presenting shortlists of the best available database servers and
// resubmitting failed batch jobs from the DGSPL instead of the users'
// manual selections (§4).
package adminsrv

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/fsim"
	"repro/internal/lsf"
	"repro/internal/netsim"
	"repro/internal/notify"
	"repro/internal/ontology"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// VIP is the virtual address the active administration server answers on;
// failover moves it, so agents never need to know which box is primary.
const VIP = "admin-vip"

// PoolMount is where both servers mount the shared NFS pool.
const PoolMount = "/nfs/pool"

// HostAspect is the registry aspect for whole-host (hardware) faults the
// admin tier detects when its sweep finds a watched host down.
func HostAspect(host string) string { return "host." + host }

// Server is one of the two administration hosts.
type Server struct {
	Host *cluster.Host
}

// Config assembles the administration pair.
type Config struct {
	Sim      *simclock.Sim
	Primary  *cluster.Host
	Standby  *cluster.Host
	Pool     *fsim.Volume // shared NFS volume
	Networks []*netsim.Network
	Dir      *svc.Directory
	LSF      *lsf.Cluster // may be nil when no batch tier exists
	Registry *faultinject.Registry
	Notify   *notify.Bus
	ISSL     *ontology.ISSL
	// OncallEmail receives escalations for faults needing humans.
	OncallEmail string
	// AgentPeriod is X, the agents' cron period; the flag sweep runs every
	// X+5 minutes as the paper prescribes.
	AgentPeriod simclock.Time
}

// dgsplPeriod is how often the pair regenerates the DGSPL files:
// every 15 minutes, as in the paper.
const dgsplPeriod = 15 * simclock.Minute

// Pair is the running administration tier.
type Pair struct {
	cfg     Config
	sim     *simclock.Sim
	servers [2]*Server
	active  int // index into servers

	// latest DLSP per origin server, as received over the network. A push
	// decodes into spare, which then trades places with the profile it
	// replaces, so profiles are reused from push to push and a push that
	// fails to decode leaves the stored one as it was.
	profiles map[string]*ontology.DLSP
	spare    *ontology.DLSP
	// buf and lines are GenerateDGSPL's scratch: each per-type file's text
	// and the lines sliced from it.
	buf   []byte
	lines []string
	// watched is the flag sweep's watch list and hosts indexes it by host
	// name, for Watch and for the DGSPL's locations. Watch appends and
	// marks the list unsorted when it adds a host; the next sweep sorts it
	// by host name, once, so deploying a site's agents sorts nothing per
	// host and the sweep still visits the hosts in name order.
	watched  []*watch
	hosts    map[string]*watch
	unsorted bool
	// latestDGSPL is the most recent generation.
	latestDGSPL *ontology.DGSPL
	// jobEscalated records unplaceable jobs already emailed about.
	jobEscalated map[int]bool

	// Counters for reports and tests.
	Failovers     int
	DLSPReceived  int
	FlagSweeps    int
	Resubmissions int
}

// New assembles and starts the administration tier: mounts the pool on
// both servers, attaches the VIP to the active one, and starts the
// heartbeat, flag-sweep, DGSPL and batch-rescue loops.
func New(cfg Config) (*Pair, error) {
	if cfg.Sim == nil || cfg.Primary == nil || cfg.Standby == nil || cfg.Pool == nil {
		return nil, fmt.Errorf("adminsrv: sim, primary, standby and pool are required")
	}
	if cfg.AgentPeriod <= 0 {
		cfg.AgentPeriod = 5 * simclock.Minute
	}
	p := &Pair{
		cfg:      cfg,
		sim:      cfg.Sim,
		servers:  [2]*Server{{Host: cfg.Primary}, {Host: cfg.Standby}},
		profiles: make(map[string]*ontology.DLSP),
		hosts:    make(map[string]*watch),
	}
	cfg.Primary.FS.Mount(PoolMount, cfg.Pool)
	cfg.Standby.FS.Mount(PoolMount, cfg.Pool)
	if cfg.ISSL != nil {
		_ = cfg.Primary.FS.WriteLines(PoolMount+"/issl.txt", cfg.ISSL.Encode())
	}
	p.attachVIP()

	// Heartbeat: failover within a minute of the active server dying.
	p.sim.Every(p.sim.Now()+simclock.Minute, simclock.Minute, "adminsrv-heartbeat", p.heartbeat)
	// Flag sweep every X+5 minutes.
	p.sim.Every(p.sim.Now()+cfg.AgentPeriod+5*simclock.Minute,
		cfg.AgentPeriod+5*simclock.Minute, "adminsrv-flagsweep", p.flagSweep)
	// DGSPL generation every 15 minutes.
	p.sim.Every(p.sim.Now()+dgsplPeriod, dgsplPeriod,
		"adminsrv-dgspl", p.GenerateDGSPL)
	// Batch rescue sweep at the agent period (the paper's agents check
	// job health every 5 minutes).
	if cfg.LSF != nil {
		p.sim.Every(p.sim.Now()+cfg.AgentPeriod, cfg.AgentPeriod, "adminsrv-batch", p.batchSweep)
	}
	return p, nil
}

// Active returns the currently active server.
func (p *Pair) Active() *Server { return p.servers[p.active] }

// attachVIP points the virtual address at the active server on every
// network.
func (p *Pair) attachVIP() {
	for _, n := range p.cfg.Networks {
		n.Attach(VIP, func(now simclock.Time, msg netsim.Message) { p.receive(now, msg) })
	}
}

// heartbeat fails over to the standby when the active server is down.
func (p *Pair) heartbeat(now simclock.Time) {
	if p.Active().Host.Up() {
		return
	}
	other := 1 - p.active
	if !p.servers[other].Host.Up() {
		return // both down; nothing to do until someone reboots them
	}
	p.active = other
	p.Failovers++
	// The VIP handler closure reads p.active, so reattachment is only
	// needed if a network lost it; re-attach defensively.
	p.attachVIP()
}

// watch is one watched host in the flag sweep.
type watch struct {
	host *cluster.Host
	down bool // an open whole-host fault, already escalated
}

// Watch registers a host for the flag sweep. Watching a host twice
// registers it once.
func (p *Pair) Watch(h *cluster.Host) {
	if p.hosts[h.Name] != nil {
		return
	}
	w := &watch{host: h}
	p.hosts[h.Name] = w
	p.watched = append(p.watched, w)
	p.unsorted = true
}

// receive handles messages arriving at the VIP.
func (p *Pair) receive(now simclock.Time, msg netsim.Message) {
	if !p.Active().Host.Up() || msg.Kind != "dlsp" {
		return
	}
	prof := p.spare
	if prof == nil {
		prof = new(ontology.DLSP)
	}
	if err := ontology.DecodeDLSPTextInto(prof, msg.Payload); err != nil {
		p.spare = prof
		return
	}
	p.spare = p.profiles[prof.Server]
	p.profiles[prof.Server] = prof
	p.DLSPReceived++
}

// Profiles reports how many servers have delivered a DLSP.
func (p *Pair) Profiles() int { return len(p.profiles) }

// flagSweep checks every watched host: dead hosts are whole-host faults to
// detect and escalate. The paper's admin tier also troubleshoots agents
// that left no flags on a live host; the model does not act on missing
// flags.
func (p *Pair) flagSweep(now simclock.Time) {
	if !p.Active().Host.Up() {
		return
	}
	p.FlagSweeps++
	if p.unsorted {
		slices.SortFunc(p.watched, func(a, b *watch) int { return strings.Compare(a.host.Name, b.host.Name) })
		p.unsorted = false
	}
	for _, w := range p.watched {
		if w.host.Up() {
			w.down = false
		} else {
			p.handleDeadHost(now, w)
		}
	}
}

// handleDeadHost detects (and escalates once) a whole-host failure.
func (p *Pair) handleDeadHost(now simclock.Time, w *watch) {
	h := w.host
	if p.cfg.Registry != nil {
		p.cfg.Registry.Detected(h.Name, HostAspect(h.Name), now, "adminserver")
	}
	if w.down {
		return
	}
	w.down = true
	if p.cfg.Notify != nil && p.cfg.OncallEmail != "" {
		p.cfg.Notify.Send("host-down")
	}
}
