package lsf

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// rig builds an LSF cluster over n running Oracle databases on E4500s.
type rig struct {
	sim *simclock.Sim
	dir *svc.Directory
	lsf *Cluster
	dbs []*svc.Service
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	sim := simclock.New(7)
	dir := svc.NewDirectory()
	r := &rig{sim: sim, dir: dir}
	for i := 0; i < n; i++ {
		name := string(rune('A' + i))
		h := cluster.NewHost(sim, "db"+name, "10.0.0."+name, cluster.ModelE4500, cluster.RoleDatabase, "london", "UK")
		s, err := svc.New(sim, svc.OracleSpec("ORA-"+name, 1521), h)
		if err != nil {
			t.Fatal(err)
		}
		dir.Add(s)
		s.Start(nil)
		r.dbs = append(r.dbs, s)
	}
	sim.RunUntil(10 * simclock.Minute)
	r.lsf = NewCluster(sim, dir)
	for _, s := range r.dbs {
		r.lsf.SetSlotLimit(s.Spec.Name, 4)
	}
	return r
}

func TestSubmitAndComplete(t *testing.T) {
	r := newRig(t, 1)
	j := r.lsf.Submit("risk-calc", "analyst1", "ORA-A", 1, 256, 0.2, simclock.Hour)
	if j.State != JobRunning {
		t.Fatalf("job should start immediately: %s", j.State)
	}
	if r.lsf.RunningOn("ORA-A") != 1 {
		t.Error("slot accounting broken")
	}
	host := r.dbs[0].Host
	if len(host.PGrep("lsf_job_risk-calc")) != 1 {
		t.Error("job process missing from host")
	}
	r.sim.RunUntil(r.sim.Now() + 3*simclock.Hour)
	if j.State != JobDone {
		t.Fatalf("job state = %s", j.State)
	}
	if r.lsf.Completed != 1 || r.lsf.RunningOn("ORA-A") != 0 {
		t.Error("completion accounting broken")
	}
	if len(host.PGrep("lsf_job_risk-calc")) != 0 {
		t.Error("job process not reaped")
	}
	if r.dbs[0].Connections() != 0 {
		t.Error("job connection not released")
	}
}

func TestSlotLimitQueuesJobs(t *testing.T) {
	r := newRig(t, 1)
	for i := 0; i < 6; i++ {
		r.lsf.Submit("j", "u", "ORA-A", 0.5, 64, 0, simclock.Hour)
	}
	if r.lsf.RunningOn("ORA-A") != 4 {
		t.Errorf("running = %d, want 4 (slot limit)", r.lsf.RunningOn("ORA-A"))
	}
	if r.lsf.PendingCount() != 2 || r.lsf.WaitingFor("ORA-A") != 2 {
		t.Errorf("pending = %d waiting = %d", r.lsf.PendingCount(), r.lsf.WaitingFor("ORA-A"))
	}
	// As jobs finish, the queue drains.
	r.sim.RunUntil(r.sim.Now() + 8*simclock.Hour)
	if r.lsf.Completed != 6 || r.lsf.PendingCount() != 0 {
		t.Errorf("completed = %d pending = %d", r.lsf.Completed, r.lsf.PendingCount())
	}
}

func TestSchedulerPlacementWhenNoChoice(t *testing.T) {
	r := newRig(t, 2)
	j := r.lsf.Submit("auto", "u", "", 0.5, 64, 0, simclock.Hour)
	if j.State != JobRunning || j.Server == "" {
		t.Fatalf("auto placement failed: %+v", j)
	}
}

func TestCrashMidJobFailsJobs(t *testing.T) {
	r := newRig(t, 1)
	j1 := r.lsf.Submit("batch1", "u", "ORA-A", 0.5, 64, 0.1, 4*simclock.Hour)
	j2 := r.lsf.Submit("batch2", "u", "ORA-A", 0.5, 64, 0.1, 4*simclock.Hour)
	r.sim.RunUntil(r.sim.Now() + simclock.Hour)
	r.dbs[0].Crash()
	r.lsf.FailJobsOn("ORA-A")
	if j1.State != JobFailed || j2.State != JobFailed {
		t.Error("states not EXIT")
	}
	if got := failedIDs(r.lsf, 0); !slices.Equal(got, []int{j1.ID, j2.ID}) {
		t.Errorf("failed index = %v, want [%d %d]", got, j1.ID, j2.ID)
	}
	if r.lsf.Failed != 2 {
		t.Errorf("Failed = %d", r.lsf.Failed)
	}
	if r.dbs[0].Host.NProcs() != 0 {
		t.Error("job procs should be gone after host crash cleanup")
	}
}

func TestJobFailsIfDBDownAtCompletion(t *testing.T) {
	r := newRig(t, 1)
	j := r.lsf.Submit("batch", "u", "ORA-A", 0.5, 64, 0, simclock.Hour)
	// Crash the database but never call FailJobsOn: the finish event
	// itself must notice.
	r.sim.After(30*simclock.Minute, "crash", func(simclock.Time) { r.dbs[0].Crash() })
	r.sim.RunUntil(r.sim.Now() + 3*simclock.Hour)
	if j.State != JobFailed {
		t.Errorf("job state = %s", j.State)
	}
}

func TestRequeueToAnotherServer(t *testing.T) {
	r := newRig(t, 2)
	j := r.lsf.Submit("batch", "u", "ORA-A", 0.5, 64, 0, simclock.Hour)
	r.dbs[0].Crash()
	r.lsf.FailJobsOn("ORA-A")
	if err := r.lsf.Requeue(j.ID, "ORA-B"); err != nil {
		t.Fatal(err)
	}
	if j.State != JobRunning || j.Server != "ORA-B" {
		t.Fatalf("after requeue: %+v", j)
	}
	if j.Attempts != 2 {
		t.Errorf("attempts = %d", j.Attempts)
	}
	r.sim.RunUntil(r.sim.Now() + 3*simclock.Hour)
	if j.State != JobDone {
		t.Errorf("state = %s", j.State)
	}
}

func TestRequeueErrors(t *testing.T) {
	r := newRig(t, 1)
	if err := r.lsf.Requeue(99, "ORA-A"); err == nil {
		t.Error("unknown job should error")
	}
	j := r.lsf.Submit("x", "u", "ORA-A", 0.5, 64, 0, simclock.Hour)
	if err := r.lsf.Requeue(j.ID, "ORA-A"); err == nil {
		t.Error("requeue of a running job should error")
	}
	n := len(r.lsf.Jobs())
	for _, id := range []int{0, -1, n + 1} {
		if err := r.lsf.Requeue(id, "ORA-A"); err == nil {
			t.Errorf("Requeue(%d) of %d jobs should error", id, n)
		}
	}
}

// failedIDs walks the failed index from a cursor, the way the
// administration pair's batch sweep does.
func failedIDs(c *Cluster, after int) []int {
	var ids []int
	for j := c.FailedAfter(after); j != nil; j = c.FailedAfter(j.ID) {
		ids = append(ids, j.ID)
	}
	return ids
}

// filteredIDs is the reference for failedIDs: the failed jobs above a
// cursor, read off a Jobs() walk.
func filteredIDs(c *Cluster, after int) []int {
	var ids []int
	for _, j := range c.Jobs() {
		if j.State == JobFailed && j.ID > after {
			ids = append(ids, j.ID)
		}
	}
	return ids
}

// TestFailedIndexMatchesJobs drives two identical clusters through the
// same random submits, database crashes and restarts, completions and
// resubmission sweeps. One sweeps by the failed index (FailedAfter from a
// cursor), the other as a filtered walk over a Jobs() snapshot, the way
// the sweep did before the index existed. After every step the index
// walk must equal the filtered walk from any cursor, and the two clusters
// must hold the same jobs in the same states.
func TestFailedIndexMatchesJobs(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 7))
	a, b := newRig(t, 3), newRig(t, 3)
	servers := []string{"", "ORA-A", "ORA-B", "ORA-C"}
	for step := 0; step < 3000; step++ {
		switch op := rng.IntN(10); {
		case op < 4:
			want := servers[rng.IntN(len(servers))]
			work := simclock.Time(rng.IntN(180)+1) * simclock.Minute
			for _, r := range []*rig{a, b} {
				r.lsf.Submit("job", "u", want, 0.5, 64, 0.1, work)
			}
		case op < 5:
			// A crash that nobody cleans up: the finish events fail
			// the jobs.
			i := rng.IntN(3)
			for _, r := range []*rig{a, b} {
				r.dbs[i].Crash()
			}
		case op < 6:
			i := rng.IntN(3)
			for _, r := range []*rig{a, b} {
				r.dbs[i].Crash()
				r.lsf.FailJobsOn(r.dbs[i].Spec.Name)
			}
		case op < 7:
			i := rng.IntN(3)
			for _, r := range []*rig{a, b} {
				_ = r.dbs[i].Start(nil)
			}
		case op < 8:
			// One resubmission sweep, each failed job sent to a random
			// server (a crashed one leaves it pending).
			targets := make([]string, 0, 64)
			for range 64 {
				targets = append(targets, servers[1+rng.IntN(3)])
			}
			k := 0
			for j := a.lsf.FailedAfter(0); j != nil; j = a.lsf.FailedAfter(j.ID) {
				_ = a.lsf.Requeue(j.ID, targets[k%len(targets)])
				k++
			}
			k = 0
			for _, j := range b.lsf.Jobs() {
				if j.State != JobFailed {
					continue
				}
				_ = b.lsf.Requeue(j.ID, targets[k%len(targets)])
				k++
			}
		default:
			d := simclock.Time(rng.IntN(90)) * simclock.Minute
			for _, r := range []*rig{a, b} {
				r.sim.RunUntil(r.sim.Now() + d)
			}
		}
		n := len(a.lsf.Jobs())
		for _, after := range []int{0, rng.IntN(n + 2), n} {
			if got, want := failedIDs(a.lsf, after), filteredIDs(a.lsf, after); !slices.Equal(got, want) {
				t.Fatalf("step %d: failed index after %d = %v, filtered Jobs() = %v", step, after, got, want)
			}
		}
		ja, jb := a.lsf.Jobs(), b.lsf.Jobs()
		if len(ja) != len(jb) {
			t.Fatalf("step %d: %d jobs vs %d", step, len(ja), len(jb))
		}
		for i := range ja {
			if ja[i].ID != jb[i].ID || ja[i].State != jb[i].State || ja[i].Server != jb[i].Server || ja[i].Attempts != jb[i].Attempts {
				t.Fatalf("step %d: index sweep left %v, Jobs() sweep %v", step, ja[i], jb[i])
			}
		}
	}
	if a.lsf.Failed == 0 || a.lsf.Completed == 0 {
		t.Fatalf("walk exercised too little: %d failed, %d completed", a.lsf.Failed, a.lsf.Completed)
	}
}

// TestResetClearsJobTable: Reset empties the job table and the failed
// index, and IDs start again from 1.
func TestResetClearsJobTable(t *testing.T) {
	r := newRig(t, 1)
	r.lsf.Submit("a", "u", "ORA-A", 0.5, 64, 0, simclock.Hour)
	r.dbs[0].Crash()
	r.lsf.FailJobsOn("ORA-A")
	r.lsf.Reset()
	if len(r.lsf.Jobs()) != 0 || r.lsf.FailedAfter(0) != nil || r.lsf.Failed != 0 {
		t.Fatalf("after Reset: %d jobs, failed index head %v, Failed %d", len(r.lsf.Jobs()), r.lsf.FailedAfter(0), r.lsf.Failed)
	}
	if err := r.lsf.Requeue(1, "ORA-A"); err == nil {
		t.Error("Requeue(1) after Reset should error")
	}
	if j := r.lsf.Submit("b", "u", "", 0.5, 64, 0, simclock.Hour); j.ID != 1 {
		t.Errorf("first job after Reset has ID %d, want 1", j.ID)
	}
}

func TestDispatchSkipsDownServers(t *testing.T) {
	r := newRig(t, 2)
	r.dbs[0].Crash()
	j := r.lsf.Submit("x", "u", "", 0.5, 64, 0, simclock.Hour)
	if j.Server != "ORA-B" {
		t.Errorf("placed on %s, want ORA-B", j.Server)
	}
	// A job demanding the crashed server waits.
	j2 := r.lsf.Submit("y", "u", "ORA-A", 0.5, 64, 0, simclock.Hour)
	if j2.State != JobPending {
		t.Errorf("job for down server should pend: %s", j2.State)
	}
	// When the database comes back and a dispatch cycle runs, it starts.
	r.dbs[0].Start(nil)
	r.sim.RunUntil(r.sim.Now() + 10*simclock.Minute)
	r.lsf.Dispatch()
	if j2.State != JobRunning {
		t.Errorf("job should start after DB restart: %s", j2.State)
	}
}

func TestPowerAffectsRuntime(t *testing.T) {
	sim := simclock.New(7)
	dir := svc.NewDirectory()
	fast := cluster.NewHost(sim, "fast", "1", cluster.ModelE10K, cluster.RoleDatabase, "l", "UK")
	slow := cluster.NewHost(sim, "slow", "2", cluster.ModelLinux, cluster.RoleDatabase, "l", "UK")
	sf, _ := svc.New(sim, svc.OracleSpec("FAST", 1521), fast)
	ss, _ := svc.New(sim, svc.OracleSpec("SLOW", 1521), slow)
	dir.Add(sf)
	dir.Add(ss)
	sf.Start(nil)
	ss.Start(nil)
	sim.RunUntil(10 * simclock.Minute)
	c := NewCluster(sim, dir)
	c.SetSlotLimit("FAST", 4)
	c.SetSlotLimit("SLOW", 4)
	jf := c.Submit("a", "u", "FAST", 0.5, 64, 0, simclock.Hour)
	js := c.Submit("b", "u", "SLOW", 0.5, 64, 0, simclock.Hour)
	// Both started now; note the minute each is first seen done.
	var lf, ls simclock.Time
	for start := sim.Now(); sim.Now() < start+4*simclock.Hour; {
		sim.RunUntil(sim.Now() + simclock.Minute)
		if jf.State == JobDone && lf == 0 {
			lf = sim.Now() - start
		}
		if js.State == JobDone && ls == 0 {
			ls = sim.Now() - start
		}
	}
	if jf.State != JobDone || js.State != JobDone {
		t.Fatalf("job states = %s, %s", jf.State, js.State)
	}
	if lf >= ls {
		t.Errorf("fast server should finish sooner: fast=%v slow=%v", lf, ls)
	}
}

func TestCountByState(t *testing.T) {
	r := newRig(t, 1)
	r.lsf.Submit("a", "u", "ORA-A", 0.5, 64, 0, simclock.Hour)
	for i := 0; i < 5; i++ {
		r.lsf.Submit("b", "u", "ORA-A", 0.5, 64, 0, simclock.Hour)
	}
	counts := r.lsf.CountByState()
	if counts[JobRunning] != 4 || counts[JobPending] != 2 {
		t.Errorf("counts = %v", counts)
	}
	if len(r.lsf.Jobs()) != 6 {
		t.Errorf("Jobs() = %d", len(r.lsf.Jobs()))
	}
}

// Property: running jobs per server never exceed the slot limit, whatever
// the submission pattern.
func TestQuickSlotInvariant(t *testing.T) {
	f := func(nJobs uint8, limit8 uint8) bool {
		limit := int(limit8%6) + 1
		sim := simclock.New(11)
		dir := svc.NewDirectory()
		h := cluster.NewHost(sim, "db", "1", cluster.ModelE10K, cluster.RoleDatabase, "l", "UK")
		s, _ := svc.New(sim, svc.OracleSpec("DB", 1521), h)
		dir.Add(s)
		s.Start(nil)
		sim.RunUntil(10 * simclock.Minute)
		c := NewCluster(sim, dir)
		c.SetSlotLimit("DB", limit)
		for i := 0; i < int(nJobs); i++ {
			c.Submit("j", "u", "DB", 0.1, 8, 0, simclock.Hour)
			if c.RunningOn("DB") > limit {
				return false
			}
		}
		sim.RunUntil(sim.Now() + 30*simclock.Minute)
		return c.RunningOn("DB") <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
