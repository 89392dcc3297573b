package adminsrv

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/fsim"
	"repro/internal/lsf"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/notify"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// rig: two admin servers, nDB database hosts with oracle + status agents,
// an LSF cluster, private+public networks.
type rig struct {
	sim    *simclock.Sim
	pair   *Pair
	bus    *notify.Bus
	dir    *svc.Directory
	ledger *metrics.Ledger
	reg    *faultinject.Registry
	lsfc   *lsf.Cluster
	priv   *netsim.Network
	pub    *netsim.Network
	admin1 *cluster.Host
	admin2 *cluster.Host
	dbs    []*svc.Service
}

func newRig(t *testing.T, nDB int) *rig {
	t.Helper()
	sim := simclock.New(23)
	r := &rig{
		sim:    sim,
		bus:    notify.NewBus(sim),
		dir:    svc.NewDirectory(),
		ledger: metrics.NewLedger(),
	}
	r.reg = faultinject.NewRegistry(r.ledger)
	r.priv = netsim.New(sim, "private", simclock.Second, 0)
	r.pub = netsim.New(sim, "public", simclock.Second, 0)
	r.admin1 = cluster.NewHost(sim, "admin1", "10.1.0.1", cluster.ModelE450, cluster.RoleAdmin, "london-dc1", "UK")
	r.admin2 = cluster.NewHost(sim, "admin2", "10.1.0.2", cluster.ModelE450, cluster.RoleAdmin, "london-dc1", "UK")

	models := []cluster.HardwareModel{cluster.ModelE4500, cluster.ModelE10K, cluster.ModelE450}
	for i := 0; i < nDB; i++ {
		name := "db" + string(rune('A'+i))
		h := cluster.NewHost(sim, name, "10.0.0."+string(rune('1'+i)), models[i%len(models)], cluster.RoleDatabase, "london-dc1", "UK")
		s, err := svc.New(sim, svc.OracleSpec("ORA-"+string(rune('A'+i)), 1521), h)
		if err != nil {
			t.Fatal(err)
		}
		r.dir.Add(s)
		s.Start(nil)
		r.dbs = append(r.dbs, s)
		r.priv.Attach(name, nil)
		r.pub.Attach(name, nil)
	}
	sim.RunUntil(10 * simclock.Minute)

	r.lsfc = lsf.NewCluster(sim, r.dir)
	for _, s := range r.dbs {
		r.lsfc.SetSlotLimit(s.Spec.Name, 4)
	}

	pool := fsim.NewVolume()
	pair, err := New(Config{
		Sim: sim, Primary: r.admin1, Standby: r.admin2, Pool: pool,
		Networks: []*netsim.Network{r.priv, r.pub},
		Dir:      r.dir, LSF: r.lsfc, Registry: r.reg, Notify: r.bus,
		OncallEmail: "oncall@site", AgentPeriod: 5 * simclock.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.pair = pair

	// Status agents push DLSPs to the VIP over a per-host router.
	for _, s := range r.dbs {
		host := s.Host
		router := netsim.NewRouter(r.priv, r.pub)
		cfg := agent.Config{
			Host:     host,
			Services: r.dir,
			Notify:   r.bus,
			Report: func(kind, payload string) {
				router.Send(netsim.Message{From: host.Name, To: VIP, Kind: kind, Payload: payload})
			},
		}
		sa, err := agents.NewStatusAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sa.Schedule(sim, 0, 5*simclock.Minute)
		pair.Watch(host, sa.Name())
	}
	return r
}

func TestDLSPCollection(t *testing.T) {
	r := newRig(t, 3)
	r.sim.RunUntil(r.sim.Now() + 20*simclock.Minute)
	if r.pair.Profiles() != 3 {
		t.Errorf("profiles = %d, want 3", r.pair.Profiles())
	}
	if r.pair.DLSPReceived < 3 {
		t.Errorf("DLSP received = %d", r.pair.DLSPReceived)
	}
}

func TestDGSPLGenerationAndPoolFile(t *testing.T) {
	r := newRig(t, 3)
	r.sim.RunUntil(r.sim.Now() + 40*simclock.Minute)
	list := r.pair.LatestDGSPL()
	if list == nil || len(list.Entries) != 3 {
		t.Fatalf("dgspl = %+v", list)
	}
	for _, e := range list.Entries {
		if e.AppType != "oracle" || e.State != "running" || e.JobLimit != 4 {
			t.Errorf("entry: %+v", e)
		}
		if e.Geo != "UK" || e.Site != "london-dc1" {
			t.Errorf("geo/site missing: %+v", e)
		}
	}
	// The per-type pool file decodes and is visible from BOTH admin
	// servers via the shared NFS pool.
	fromPool, err := r.pair.ReadPoolDGSPL("oracle")
	if err != nil {
		t.Fatal(err)
	}
	if len(fromPool.Entries) != 3 {
		t.Errorf("pool entries = %d", len(fromPool.Entries))
	}
	lines, err := r.admin2.FS.ReadLines(PoolMount + "/dgspl-oracle.txt")
	if err != nil || len(lines) == 0 {
		t.Errorf("standby cannot read pool: %v", err)
	}
}

func TestShortlistPrefersPowerfulIdleServers(t *testing.T) {
	r := newRig(t, 3) // dbA=E4500, dbB=E10K, dbC=E450
	r.sim.RunUntil(r.sim.Now() + 20*simclock.Minute)
	r.pair.GenerateDGSPL(r.sim.Now())
	sl := r.pair.Shortlist("oracle")
	if len(sl) != 3 || sl[0].Server != "dbB" {
		names := []string{}
		for _, e := range sl {
			names = append(names, e.Server)
		}
		t.Errorf("shortlist = %v, want dbB (E10K) first", names)
	}
}

func TestFailoverOnPrimaryDeath(t *testing.T) {
	r := newRig(t, 2)
	if r.pair.Active().Host != r.admin1 {
		t.Fatal("primary should start active")
	}
	r.admin1.Crash()
	r.sim.RunUntil(r.sim.Now() + 3*simclock.Minute)
	if r.pair.Active().Host != r.admin2 {
		t.Fatal("failover did not happen")
	}
	if r.pair.Failovers != 1 {
		t.Errorf("failovers = %d", r.pair.Failovers)
	}
	// The standby keeps collecting DLSPs and generating DGSPLs.
	before := r.pair.DLSPReceived
	r.sim.RunUntil(r.sim.Now() + 20*simclock.Minute)
	if r.pair.DLSPReceived <= before {
		t.Error("standby not receiving DLSPs after failover")
	}
	if r.pair.LatestDGSPL() == nil {
		t.Error("standby not generating DGSPLs")
	}
}

func TestNoFailoverWhenBothDown(t *testing.T) {
	r := newRig(t, 1)
	r.admin1.Crash()
	r.admin2.Crash()
	r.sim.RunUntil(r.sim.Now() + 5*simclock.Minute)
	if r.pair.Failovers != 0 {
		t.Error("cannot fail over to a dead standby")
	}
}

func TestFlagSweepDetectsDeadHost(t *testing.T) {
	r := newRig(t, 2)
	r.sim.RunUntil(r.sim.Now() + 15*simclock.Minute)
	host := r.dbs[0].Host
	// Register the whole-host fault, then kill the host.
	r.reg.Add(metrics.CatHardware, host.Name, HostAspect(host.Name), "cpu board", true, r.sim.Now(),
		func(simclock.Time) bool { return host.Up() })
	host.HardwareFail()
	r.sim.RunUntil(r.sim.Now() + 15*simclock.Minute)
	incs := r.ledger.Incidents()
	if len(incs) != 1 || !incs[0].Detected || incs[0].DetectedBy != "adminserver" {
		t.Fatalf("incident: %+v", incs[0])
	}
	if incs[0].DetectionLatency() > 11*simclock.Minute {
		t.Errorf("detection latency = %v, want within one X+5 sweep", incs[0].DetectionLatency())
	}
	if r.bus.CountByTag("host-down") != 1 {
		t.Errorf("host-down emails = %d, want exactly 1 (no repeat)", r.bus.CountByTag("host-down"))
	}
	r.sim.RunUntil(r.sim.Now() + 30*simclock.Minute)
	if r.bus.CountByTag("host-down") != 1 {
		t.Error("dead host re-escalated every sweep")
	}
}

func TestFlagSweepCountsAgentRestarts(t *testing.T) {
	r := newRig(t, 1)
	// Watch a phantom agent that never drops flags.
	r.pair.Watch(r.dbs[0].Host, "phantom-agent")
	r.sim.RunUntil(r.sim.Now() + 25*simclock.Minute)
	if r.pair.AgentRestarts == 0 {
		t.Error("missing flags should trigger agent troubleshooting")
	}
	if r.pair.FlagSweeps == 0 {
		t.Error("no sweeps ran")
	}
}

func TestBatchRescueViaDGSPL(t *testing.T) {
	r := newRig(t, 3)
	r.sim.RunUntil(r.sim.Now() + 20*simclock.Minute)
	// Submit jobs against dbA (E4500), then crash it mid-job.
	var jobs []*lsf.Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, r.lsfc.Submit("overnight-calc", "analyst1", "ORA-A", 1, 256, 0.1, 2*simclock.Hour))
	}
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	r.dbs[0].Crash()
	r.lsfc.FailJobsOn("ORA-A", "database crashed mid-job")
	// Within an agent period the admin tier should resubmit all three to
	// the more powerful E10K (dbB) — equal or higher power than E4500.
	r.sim.RunUntil(r.sim.Now() + 16*simclock.Minute)
	if r.pair.Resubmissions != 3 {
		t.Fatalf("resubmissions = %d", r.pair.Resubmissions)
	}
	for _, j := range jobs {
		if j.State != lsf.JobRunning && j.State != lsf.JobDone {
			t.Errorf("job %d state = %s", j.ID, j.State)
		}
		if j.Server != "ORA-B" {
			t.Errorf("job %d resubmitted to %s, want ORA-B (E10K)", j.ID, j.Server)
		}
	}
	// Jobs eventually complete.
	r.sim.RunUntil(r.sim.Now() + 6*simclock.Hour)
	for _, j := range jobs {
		if j.State != lsf.JobDone {
			t.Errorf("job %d final state = %s (%s)", j.ID, j.State, j.FailReason)
		}
	}
}

func TestUnplaceableJobEscalates(t *testing.T) {
	r := newRig(t, 1)
	r.sim.RunUntil(r.sim.Now() + 20*simclock.Minute)
	j := r.lsfc.Submit("calc", "analyst", "ORA-A", 1, 256, 0, 2*simclock.Hour)
	r.dbs[0].Crash()
	r.lsfc.FailJobsOn("ORA-A", "crash")
	r.sim.RunUntil(r.sim.Now() + 30*simclock.Minute)
	if j.State != lsf.JobFailed {
		t.Fatalf("job state = %s", j.State)
	}
	if r.bus.CountByTag("job-unplaceable") != 1 {
		t.Errorf("unplaceable emails = %d, want exactly 1", r.bus.CountByTag("job-unplaceable"))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
}

// TestFlagSweepVisitsHostsInNameOrder: Watch appends, and the first sweep
// after it added a host sorts the watch list once, so hosts watched in
// reverse name order are swept in name order. Every watched host is down,
// so each sweep's dead-host emails follow the order it visits them in,
// both in the first sweep and in a later one after more hosts are watched.
func TestFlagSweepVisitsHostsInNameOrder(t *testing.T) {
	sim := simclock.New(5)
	bus := notify.NewBus(sim)
	admin1 := cluster.NewHost(sim, "admin1", "10.1.0.1", cluster.ModelE450, cluster.RoleAdmin, "london-dc1", "UK")
	admin2 := cluster.NewHost(sim, "admin2", "10.1.0.2", cluster.ModelE450, cluster.RoleAdmin, "london-dc1", "UK")
	pair, err := New(Config{
		Sim: sim, Primary: admin1, Standby: admin2, Pool: fsim.NewVolume(),
		Notify: bus, OncallEmail: "oncall@site", AgentPeriod: 5 * simclock.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	watchDead := func(names ...string) {
		for _, name := range names {
			h := cluster.NewHost(sim, name, "10.0.0.1", cluster.ModelE450, cluster.RoleDatabase, "london-dc1", "UK")
			h.Crash()
			pair.Watch(h, "status-"+name, "network-"+name)
		}
	}
	seen := 0
	swept := func() []string {
		var hosts []string
		msgs := bus.History()
		msgs, seen = msgs[seen:], len(msgs)
		for _, m := range msgs {
			if m.Tag == "host-down" {
				hosts = append(hosts, strings.TrimSuffix(strings.TrimPrefix(m.Subject, "server "), " unreachable"))
			}
		}
		return hosts
	}
	check := func(round string, got, want []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s sweep escalated %v, want %v", round, got, want)
		}
	}

	watchDead("db09", "db07", "db05", "db03", "db01")
	sim.RunUntil(sim.Now() + 10*simclock.Minute) // the first sweep, at X+5 minutes
	check("first", swept(), []string{"db01", "db03", "db05", "db07", "db09"})

	watchDead("db08", "db04", "db02", "db06")
	sim.RunUntil(sim.Now() + 10*simclock.Minute)
	check("second", swept(), []string{"db02", "db04", "db06", "db08"})
	if pair.FlagSweeps != 2 {
		t.Errorf("FlagSweeps = %d, want 2", pair.FlagSweeps)
	}
}
