package workload

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/lsf"
	"repro/internal/simclock"
	"repro/internal/svc"
)

func TestDiurnalShape(t *testing.T) {
	night := DiurnalShape(2 * simclock.Hour)
	morning := DiurnalShape(8 * simclock.Hour)
	midday := DiurnalShape(11 * simclock.Hour)
	evening := DiurnalShape(19 * simclock.Hour)
	weekend := DiurnalShape(5*simclock.Day + 11*simclock.Hour)
	if !(night < morning && morning < midday) {
		t.Errorf("ramp broken: %v %v %v", night, morning, midday)
	}
	if !(evening < midday) {
		t.Errorf("evening should decay: %v vs %v", evening, midday)
	}
	if weekend != 0.15 {
		t.Errorf("weekend = %v", weekend)
	}
	for h := simclock.Time(0); h < simclock.Day; h += 30 * simclock.Minute {
		v := DiurnalShape(h)
		if v < 0 || v > 1 {
			t.Fatalf("shape out of range at %v: %v", h, v)
		}
	}
}

type rig struct {
	sim  *simclock.Sim
	dc   *cluster.Datacentre
	dir  *svc.Directory
	lsfc *lsf.Cluster
	gen  *Generator
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := simclock.New(41)
	dc := cluster.NewDatacentre()
	dir := svc.NewDirectory()
	var dbNames []string
	for i := 0; i < 4; i++ {
		name := "db" + string(rune('A'+i))
		h := cluster.NewHost(sim, name, "ip", cluster.ModelE4500, cluster.RoleDatabase, "l", "UK")
		dc.Add(h)
		s, _ := svc.New(sim, svc.OracleSpec("ORA-"+string(rune('A'+i)), 1521), h)
		dir.Add(s)
		s.Start(nil)
		dbNames = append(dbNames, s.Spec.Name)
	}
	for i := 0; i < 3; i++ {
		dc.Add(cluster.NewHost(sim, "fe"+string(rune('A'+i)), "ip", cluster.ModelSP2, cluster.RoleFrontEnd, "l", "UK"))
	}
	dc.Add(cluster.NewHost(sim, "tx1", "ip", cluster.ModelHPK, cluster.RoleTransaction, "l", "UK"))
	sim.RunUntil(10 * simclock.Minute)
	lsfc := lsf.NewCluster(sim, dir)
	for _, n := range dbNames {
		lsfc.SetSlotLimit(n, 6)
	}
	cfg := DefaultConfig()
	cfg.OvernightJobs = 10
	cfg.DayJobsPerHour = 6
	gen := New(sim, cfg, dc, dir, lsfc, dbNames)
	return &rig{sim: sim, dc: dc, dir: dir, lsfc: lsfc, gen: gen}
}

// reset rewinds the rig for another trial as site reuse does: the
// simulation (dropping every pending event), the LSF job table, then the
// generator.
func (r *rig) reset() {
	r.sim.Reset(41)
	r.lsfc.Reset()
	r.gen.Reset(r.sim.Rand())
}

func TestInteractiveLoadFollowsShape(t *testing.T) {
	r := newRig(t)
	// Interactive ambience only: no batch jobs muddying the night hours.
	cfg := DefaultConfig()
	cfg.DayJobsPerHour = 0
	cfg.OvernightJobs = 0
	r.gen = New(r.sim, cfg, r.dc, r.dir, r.lsfc, nil)
	r.gen.Start()
	// Midday on a weekday.
	r.sim.RunUntil(11 * simclock.Hour)
	dayUtil := r.dc.Host("dbA").CPUUtilisation()
	// Small hours.
	r.sim.RunUntil(simclock.Day + 3*simclock.Hour)
	nightUtil := r.dc.Host("dbA").CPUUtilisation()
	if dayUtil <= nightUtil {
		t.Errorf("diurnal load inverted: day=%v night=%v", dayUtil, nightUtil)
	}
	if fe := r.dc.Host("feA").CPUUtilisation(); fe == 0 {
		t.Error("front-end hosts should carry analyst load at midday")
	}
}

func TestOvernightBatchDrop(t *testing.T) {
	r := newRig(t)
	r.gen.Start()
	r.sim.RunUntil(21*simclock.Hour + 30*simclock.Minute)
	before := r.gen.JobsSubmitted
	r.sim.RunUntil(22*simclock.Hour + 10*simclock.Minute)
	dropped := r.gen.JobsSubmitted - before
	if dropped < 10 {
		t.Errorf("overnight drop submitted %d jobs, want >= 10", dropped)
	}
}

func TestJobsEventuallyComplete(t *testing.T) {
	r := newRig(t)
	r.gen.Start()
	r.sim.RunUntil(2 * simclock.Day)
	counts := r.lsfc.CountByState()
	if counts[lsf.JobDone] == 0 {
		t.Errorf("no jobs completed in 2 days: %v", counts)
	}
	if r.gen.JobsSubmitted == 0 {
		t.Fatal("no jobs submitted")
	}
}

func TestManualSelectionSpreadsAcrossServers(t *testing.T) {
	r := newRig(t)
	r.gen.Start()
	r.sim.RunUntil(3 * simclock.Day)
	targets := map[string]bool{}
	for _, j := range r.lsfc.Jobs() {
		if j.WantServer != "" {
			targets[j.WantServer] = true
		}
	}
	if len(targets) < 3 {
		t.Errorf("manual selection hit only %d servers", len(targets))
	}
}

func TestFeedLoadOnTransactionHosts(t *testing.T) {
	r := newRig(t)
	r.gen.Start()
	// Feed load lands at the first refresh tick, which fires at Now.
	r.sim.RunUntil(r.sim.Now())
	if r.dc.Host("tx1").IOStat().BusyPct == 0 {
		t.Error("feed load should keep transaction disks busy")
	}
}

// TestDomainBatchWeighting pins the weighted target draw: with domains
// installed, a tier at batch weight 3 receives roughly three times the
// submissions of a weight-1 tier, and a zero-weight tier receives none.
func TestDomainBatchWeighting(t *testing.T) {
	r := newRig(t)
	// dbA,dbB -> "hot" (weight 3); dbC -> "cold" (weight 0); dbD default.
	tierOf := map[string]string{"dbA": "hot", "dbB": "hot", "dbC": "cold"}
	tiers := map[string]TierLoad{
		"hot":  {Share: 1, Batch: 3, Feed: 1, Amp: 1},
		"cold": {Share: 1, Batch: 0, Feed: 1, Amp: 1},
	}
	r.gen.SetDomains(tierOf, tiers)
	r.gen.Start()
	r.sim.RunUntil(14 * simclock.Day)
	byTarget := map[string]int{}
	for _, j := range r.lsfc.Jobs() {
		byTarget[j.WantServer]++
	}
	if n := byTarget["ORA-C"]; n != 0 {
		t.Errorf("zero-weight target received %d jobs", n)
	}
	hot := byTarget["ORA-A"] + byTarget["ORA-B"]
	def := byTarget["ORA-D"]
	if def == 0 {
		t.Fatal("default-weight target received nothing")
	}
	// Expected hot:def ratio is 6:1 (two hosts at weight 3 vs one at 1);
	// assert a loose 3:1 to stay robust across seeds.
	if hot < 3*def {
		t.Errorf("weighted draw off: hot tier %d vs default %d", hot, def)
	}
}

// TestDomainAllZeroBatchStopsSubmission: an all-zero weighting empties
// the submission pool rather than panicking the weighted draw.
func TestDomainAllZeroBatchStopsSubmission(t *testing.T) {
	r := newRig(t)
	tierOf := map[string]string{"dbA": "z", "dbB": "z", "dbC": "z", "dbD": "z"}
	r.gen.SetDomains(tierOf, map[string]TierLoad{"z": {Share: 1, Batch: 0, Feed: 1, Amp: 1}})
	r.gen.Start()
	r.sim.RunUntil(3 * simclock.Day)
	if r.gen.JobsSubmitted != 0 {
		t.Errorf("all-zero batch weights still submitted %d jobs", r.gen.JobsSubmitted)
	}
}

// TestDomainsSurviveReset: Reset rewinds counters and streams but keeps
// the topology-derived domain state.
func TestDomainsSurviveReset(t *testing.T) {
	r := newRig(t)
	tierOf := map[string]string{"dbC": "cold"}
	r.gen.SetDomains(tierOf, map[string]TierLoad{"cold": {Share: 1, Batch: 0, Feed: 1, Amp: 1}})
	r.gen.Start()
	r.sim.RunUntil(2 * simclock.Day)
	r.reset()
	r.gen.Start()
	r.sim.RunUntil(4 * simclock.Day)
	for _, j := range r.lsfc.Jobs() {
		if j.WantServer == "ORA-C" {
			t.Fatal("excluded target resurfaced after Reset")
		}
	}
}

// TestRefreshAllocatesNothing: the 15-minute refresh walks the host
// tables the generator compiled when it was built, so a tick allocates
// nothing, with or without domains, and with a transaction host down.
func TestRefreshAllocatesNothing(t *testing.T) {
	for _, domains := range []bool{false, true} {
		r := newRig(t)
		if domains {
			r.gen.SetDomains(map[string]string{"tx1": "feeds", "feA": "gui"}, map[string]TierLoad{
				"feeds": {Share: 1, Batch: 1, Feed: 2, Amp: 1},
				"gui":   {Share: 3, Batch: 1, Feed: 1, Amp: 0.5},
			})
		}
		r.gen.Start()
		r.sim.RunUntil(11 * simclock.Hour)
		now := r.sim.Now()
		if n := testing.AllocsPerRun(100, func() { r.gen.refreshInteractive(now) }); n != 0 {
			t.Errorf("domains=%v: a refresh tick allocates %v times, want 0", domains, n)
		}
		r.dc.Host("tx1").Crash()
		if n := testing.AllocsPerRun(100, func() { r.gen.refreshInteractive(now) }); n != 0 {
			t.Errorf("domains=%v: a refresh tick with tx1 down allocates %v times, want 0", domains, n)
		}
	}
}
