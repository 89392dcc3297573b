package lsf

import (
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
		t.Fatalf("job state = %s (%s)", j.State, j.FailReason)
	}
	if j.FinishedAt <= j.StartedAt {
		t.Errorf("job finished at %v, started at %v", j.FinishedAt, j.StartedAt)
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
	var failed []*Job
	r.lsf.OnJobFailed = func(now simclock.Time, j *Job) { failed = append(failed, j) }
	r.sim.RunUntil(r.sim.Now() + simclock.Hour)
	r.dbs[0].Crash()
	got := r.lsf.FailJobsOn("ORA-A", "database crashed mid-job")
	if len(got) != 2 || got[0].ID != j1.ID || got[1].ID != j2.ID {
		t.Fatalf("failed jobs = %v", got)
	}
	if j1.State != JobFailed || j2.State != JobFailed {
		t.Error("states not EXIT")
	}
	if len(failed) != 2 {
		t.Errorf("OnJobFailed fired %d times", len(failed))
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
	r.lsf.FailJobsOn("ORA-A", "crash")
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
	sim.RunUntil(sim.Now() + 4*simclock.Hour)
	if jf.State != JobDone || js.State != JobDone {
		t.Fatalf("job states = %s, %s", jf.State, js.State)
	}
	if lf, ls := jf.FinishedAt-jf.StartedAt, js.FinishedAt-js.StartedAt; lf >= ls {
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
