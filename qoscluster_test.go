package qoscluster

import (
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// agentHost returns the host whose filesystem holds a's activity log,
// which every run of the agent appends to, or nil before its first run.
func agentHost(site *Site, a *agent.Agent) *cluster.Host {
	for _, h := range site.DC.Hosts() {
		if _, err := h.FS.ReadLines(agent.FlagRoot + "/" + a.Name() + "/activity.log"); err == nil {
			return h
		}
	}
	return nil
}

func TestBuildSiteStructure(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(1), WithMode(ModeManual))
	wantHosts := 0
	for _, tier := range SmallTopology().Tiers {
		wantHosts += tier.Hosts
	}
	if got := len(site.DC.Hosts()); got != wantHosts {
		t.Errorf("hosts = %d, want %d", got, wantHosts)
	}
	// Every database host runs a database service plus LSF daemons.
	for _, h := range site.DC.ByRole(cluster.RoleDatabase) {
		services := site.Dir.OnHost(h.Name)
		if len(services) != 2 {
			t.Errorf("%s services = %d, want 2", h.Name, len(services))
		}
	}
	// All services started during build.
	for _, sv := range site.Dir.All() {
		if !sv.Running() {
			t.Errorf("%s not running after build: %v", sv.Spec.Name, sv.State())
		}
	}
	// LSF slot limits configured for every database service.
	for _, name := range []string{"ORA-001", "ORA-002"} {
		if site.LSF.SlotLimit(name) == 0 {
			t.Errorf("no slot limit for %s", name)
		}
	}
}

func TestPaperSiteCounts(t *testing.T) {
	hosts := map[string]int{}
	for _, tier := range PaperTopology().Tiers {
		hosts[tier.Role] = tier.Hosts
	}
	if hosts["database"] != 100 || hosts["transaction"] != 55 || hosts["frontend"] != 60 {
		t.Errorf("paper site counts drifted: %v", hosts)
	}
}

func TestAgentModeAddsAdminTier(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(1), WithMode(ModeAgents))
	mustRun(t, site, simclock.Hour)
	if site.Admin == nil {
		t.Fatal("admin pair missing")
	}
	if len(site.Agents) == 0 {
		t.Fatal("no agents deployed")
	}
	// Lean set: services + status + performance + network per host.
	perHost := map[string]int{}
	for _, a := range site.Agents {
		perHost[agentHost(site, a).Name]++
	}
	for _, h := range site.DC.ByRole(cluster.RoleDatabase) {
		if perHost[h.Name] != 5 { // 2 service agents + status + perf + network
			t.Errorf("%s agents = %d, want 5", h.Name, perHost[h.Name])
		}
	}
}

func TestAgentsFullSet(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(1), WithMode(ModeAgents), func(o *Options) { o.AgentSet = AgentsFull })
	mustRun(t, site, simclock.Hour)
	perHost := map[string]int{}
	for _, a := range site.Agents {
		perHost[agentHost(site, a).Name]++
	}
	for _, h := range site.DC.ByRole(cluster.RoleFrontEnd) {
		// 1 service + status+perf+net + cpu+mem+disk+hw + end-to-end
		if perHost[h.Name] != 9 {
			t.Errorf("%s agents = %d, want 9", h.Name, perHost[h.Name])
		}
	}
	for _, h := range site.DC.ByRole(cluster.RoleDatabase) {
		// 2 service + status+perf+net + cpu+mem+disk+hw + database
		if perHost[h.Name] != 10 {
			t.Errorf("%s agents = %d, want 10", h.Name, perHost[h.Name])
		}
	}
}

// TestSlotAgentsRunInTurn: agents that share a host and a cron slot run
// one after another, each a whole run, as a host's crons that wake at one
// instant do. So both monitors find the first agent's process awake: the
// first agent's own, spawned before its monitor runs, and, for the second
// agent, the process of the agent before it in the slot. Slotted
// (AgentSlots) dispatch must match per-agent tickers here.
func TestSlotAgentsRunInTurn(t *testing.T) {
	for _, slots := range []int{0, 8} {
		site := mustSite(t, SmallTopology(), WithSeed(7), WithMode(ModeManual), WithNoFaults(), WithAgentSlots(slots))
		h := site.DC.Hosts()[0]
		runs, saw := 0, 0
		parts := agent.Parts{Monitor: func(rc *agent.RunContext) []agent.Finding {
			runs++
			if len(rc.Host.PGrep("intelliagent_first")) == 1 {
				saw++
			}
			return nil
		}}
		// A phase on the slot grid: both agents wake at the same instants
		// with or without slots.
		period := 5 * simclock.Minute
		phase := agent.QuantizePhase(0, period, 8)
		for _, name := range []string{"first", "second"} {
			a, err := agent.New(agent.Config{Name: name, Host: h, Parts: parts})
			if err != nil {
				t.Fatal(err)
			}
			site.scheduleAgent(a, phase, period)
		}
		mustRun(t, site, simclock.Hour)
		if runs == 0 || saw != runs {
			t.Errorf("slots=%d: the monitors saw the first agent's process in %d of %d runs, want all",
				slots, saw, runs)
		}
	}
}

func TestManualYearShape(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(7), WithMode(ModeManual))
	mustRun(t, site, 120*simclock.Day)
	r := site.Report()
	if r.Total < 50*simclock.Hour {
		t.Errorf("manual 120d downtime = %v, suspiciously low", r.Total)
	}
	if r.DowntimeHours(metrics.CatMidCrash) < r.DowntimeHours(metrics.CatLSF) {
		t.Error("mid-crash should dominate LSF downtime")
	}
	if r.MeanDetect < 30*simclock.Minute {
		t.Errorf("manual detection mean = %v, too fast", r.MeanDetect)
	}
	if r.Resubmitted != 0 {
		t.Error("manual mode must not resubmit jobs")
	}
}

func TestAgentShortRunDetectsAndRepairs(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(7), WithMode(ModeAgents))
	mustRun(t, site, 10*simclock.Day)
	r := site.Report()
	if r.AgentRuns == 0 {
		t.Fatal("agents never ran")
	}
	// Whatever faults arrived must be detected fast.
	if len(site.Ledger.Incidents()) > 0 {
		if r.MeanDetect > 15*simclock.Minute {
			t.Errorf("agent detection mean = %v, want minutes", r.MeanDetect)
		}
	}
	// Downtime rate must be a small fraction of the manual mode's.
	manual := mustSite(t, SmallTopology(), WithSeed(7), WithMode(ModeManual))
	mustRun(t, manual, 10*simclock.Day)
	if manual.Ledger.TotalDowntime(manual.Sim.Now()) > 0 && r.Total > 0 {
		ratio := float64(manual.Ledger.TotalDowntime(manual.Sim.Now())) / float64(r.Total)
		if ratio < 2 {
			t.Errorf("agents only %.1fx better over 15d; expected much more", ratio)
		}
	}
}

// TestNotificationCounts pins the notifications a small-site agents month
// sends, by tag: qosbench's notify.sent reads their number, and no other
// check sees it.
func TestNotificationCounts(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(7), WithMode(ModeAgents))
	mustRun(t, site, 30*simclock.Day)
	want := map[string]int{"agent-escalation": 18, "host-down": 1, "threshold-exceeded": 32}
	total := 0
	for tag, n := range want {
		if got := site.Bus.CountByTag(tag); got != n {
			t.Errorf("%d %s notifications, want %d", got, tag, n)
		}
		total += n
	}
	if got := len(site.Bus.History()); got != total {
		t.Errorf("%d notifications sent, want %d", got, total)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Report {
		site := mustSite(t, SmallTopology(), WithSeed(99), WithMode(ModeManual))
		mustRun(t, site, 60*simclock.Day)
		return site.Report()
	}
	a, b := run(), run()
	if a.Total != b.Total || a.JobsDone != b.JobsDone || a.MeanDetect != b.MeanDetect {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	s1 := mustSite(t, SmallTopology(), WithSeed(1), WithMode(ModeManual))
	mustRun(t, s1, 90*simclock.Day)
	s2 := mustSite(t, SmallTopology(), WithSeed(2), WithMode(ModeManual))
	mustRun(t, s2, 90*simclock.Day)
	if s1.Report().Total == s2.Report().Total {
		t.Error("different seeds should give different years")
	}
}

func TestNoFaultsNoDowntime(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(1), WithMode(ModeManual), WithNoFaults())
	mustRun(t, site, 30*simclock.Day)
	if got := site.Report().Total; got != 0 {
		t.Errorf("downtime with no faults = %v", got)
	}
	if site.Report().JobsDone == 0 {
		t.Error("workload should still run")
	}
}

func TestNoBatchRescueAblation(t *testing.T) {
	midOnly := []faultinject.Spec{{
		Category: metrics.CatMidCrash, MeanInterarrival: 2 * simclock.Day,
		Window: faultinject.Overnight,
	}}
	with := mustSite(t, SmallTopology(), WithSeed(5), WithMode(ModeAgents), func(o *Options) { o.Faults = midOnly })
	mustRun(t, with, 8*simclock.Day)
	without := mustSite(t, SmallTopology(), WithSeed(5), WithMode(ModeAgents), func(o *Options) { o.Faults = midOnly }, func(o *Options) { o.NoBatchRescue = true })
	mustRun(t, without, 8*simclock.Day)
	rw, rwo := with.Report(), without.Report()
	if rw.Resubmitted == 0 {
		t.Error("batch rescue should resubmit failed jobs")
	}
	if rwo.Resubmitted != 0 {
		t.Error("NoBatchRescue should disable resubmission")
	}
	if rwo.JobsFailed <= rw.JobsFailed {
		t.Errorf("without rescue more jobs should stay failed: with=%d without=%d",
			rw.JobsFailed, rwo.JobsFailed)
	}
}

func TestDisablePrivateNet(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(1), WithMode(ModeAgents), func(o *Options) { o.DisablePrivateNet = true })
	mustRun(t, site, simclock.Day)
	if site.Private != nil {
		t.Fatal("private network should be absent")
	}
	if site.Public.Stats().Bytes == 0 {
		t.Error("agent traffic should ride the public LAN")
	}
	if site.Admin.DLSPReceived == 0 {
		t.Error("DLSPs should still arrive over the public LAN")
	}
}

func TestPrivateNetCarriesAgentTraffic(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(1), WithMode(ModeAgents))
	mustRun(t, site, simclock.Day)
	if site.Private.Stats().Bytes == 0 {
		t.Error("private network should carry the agent traffic")
	}
	// The public LAN carries none of it while the private net is healthy.
	if site.Public.Stats().Bytes != 0 {
		t.Errorf("public LAN carried %d agent bytes", site.Public.Stats().Bytes)
	}
}

func TestCronPeriodAblationDirection(t *testing.T) {
	fault := []faultinject.Spec{{
		Category: metrics.CatHuman, MeanInterarrival: 36 * simclock.Hour,
		Window: faultinject.AnyTime,
	}}
	fast := mustSite(t, SmallTopology(), WithSeed(3), WithMode(ModeAgents), func(o *Options) { o.CronPeriod = 2 * simclock.Minute }, func(o *Options) { o.Faults = fault })
	mustRun(t, fast, 6*simclock.Day)
	slow := mustSite(t, SmallTopology(), WithSeed(3), WithMode(ModeAgents), func(o *Options) { o.CronPeriod = simclock.Hour }, func(o *Options) { o.Faults = fault })
	mustRun(t, slow, 6*simclock.Day)
	rf, rs := fast.Report(), slow.Report()
	if rf.MeanDetect >= rs.MeanDetect {
		t.Errorf("shorter cron should detect faster: 1m->%v 60m->%v", rf.MeanDetect, rs.MeanDetect)
	}
	if rf.Total >= rs.Total {
		t.Errorf("shorter cron should reduce downtime: 1m->%v 60m->%v", rf.Total, rs.Total)
	}
}

func TestReportFormat(t *testing.T) {
	site := mustSite(t, SmallTopology(), WithSeed(7), WithMode(ModeManual))
	mustRun(t, site, 30*simclock.Day)
	out := site.Report().Format()
	for _, want := range []string{"mid-crash", "TOTAL", "detection:", "batch:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultFaultSpecsCoverAllCategories(t *testing.T) {
	specs := DefaultFaultSpecs()
	seen := map[metrics.Category]bool{}
	for _, sp := range specs {
		seen[sp.Category] = true
		if sp.MeanInterarrival <= 0 {
			t.Errorf("%s has no rate", sp.Category)
		}
	}
	for _, cat := range metrics.Categories {
		if !seen[cat] {
			t.Errorf("category %s missing from default campaign", cat)
		}
	}
}
