// Package lsf simulates the Load Sharing Facility batch system the paper's
// site used to schedule analyst jobs against database servers (§4): job
// queues, a finite number of scheduled jobs per database server, manual
// server selection by users through the application GUI, and the
// bsub/bjobs/brequeue-style operations the agents drive through "pre-
// scripted LSF specific commands".
package lsf

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/simclock"
	"repro/internal/svc"
)

// JobState is a job's lifecycle state.
type JobState int

// Job states.
const (
	JobPending JobState = iota
	JobRunning
	JobDone
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "PEND"
	case JobRunning:
		return "RUN"
	case JobDone:
		return "DONE"
	case JobFailed:
		return "EXIT"
	}
	return "?"
}

// Job is one batch job.
type Job struct {
	ID   int
	Name string
	User string

	// Resource shape while running.
	CPUDemand float64
	MemMB     float64
	DiskLoad  float64
	// Work is the run duration on an idle reference (power 1.0) server;
	// faster servers finish sooner, loaded servers slower.
	Work simclock.Time

	// Server is where the job is or was last placed (service name).
	Server string
	// WantServer is the user's manual choice; empty means scheduler picks.
	WantServer string

	State    JobState
	Attempts int

	pid      int
	finishEv *simclock.Event
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d %s user=%s server=%s state=%s attempts=%d", j.ID, j.Name, j.User, j.Server, j.State, j.Attempts)
}

// Cluster is the LSF control plane over a set of database services. Each
// database service is one execution target; SlotLimit caps concurrently
// scheduled (running) jobs per server, as the site configured.
type Cluster struct {
	sim     *simclock.Sim
	dir     *svc.Directory
	limits  map[string]int          // service name -> slot limit
	jobs    []*Job                  // every job, indexed by ID-1: IDs are dense from 1 in submit order
	failed  []int                   // IDs of the jobs now in JobFailed, ascending
	running map[string]map[int]*Job // service name -> running jobs
	pending []*Job
	targets []string // sorted execution-target names (the limits keys)

	// Completed/failed counters for reports.
	Completed int
	Failed    int
}

// NewCluster returns an LSF cluster scheduling onto dir's services.
func NewCluster(sim *simclock.Sim, dir *svc.Directory) *Cluster {
	return &Cluster{
		sim: sim, dir: dir,
		limits:  make(map[string]int),
		running: make(map[string]map[int]*Job),
	}
}

// SetSlotLimit configures the job submission limit for a database server.
func (c *Cluster) SetSlotLimit(service string, limit int) {
	if _, known := c.limits[service]; !known {
		c.targets = append(c.targets, service)
		sort.Strings(c.targets)
	}
	c.limits[service] = limit
}

// Reset returns the cluster to the state NewCluster leaves it in — no
// jobs, zeroed counters — while keeping the slot-limit configuration (it
// is derived from the static site topology) and the job table's storage.
// Site reuse calls this between trials.
func (c *Cluster) Reset() {
	clear(c.jobs)
	c.jobs = c.jobs[:0]
	c.failed = c.failed[:0]
	clear(c.running)
	c.pending = nil
	c.Completed = 0
	c.Failed = 0
}

// SlotLimit reports the limit for a service (0 = not an execution target).
func (c *Cluster) SlotLimit(service string) int { return c.limits[service] }

// RunningOn reports the number of running jobs on a service.
func (c *Cluster) RunningOn(service string) int { return len(c.running[service]) }

// WaitingFor reports pending jobs that want the given server.
func (c *Cluster) WaitingFor(service string) int {
	n := 0
	for _, j := range c.pending {
		if j.WantServer == service {
			n++
		}
	}
	return n
}

// PendingCount reports total queued jobs.
func (c *Cluster) PendingCount() int { return len(c.pending) }

// Jobs returns all jobs in submission order.
func (c *Cluster) Jobs() []*Job { return slices.Clone(c.jobs) }

// FailedAfter returns the failed job with the lowest ID above id, or nil
// if there is none. A walk that starts at FailedAfter(0) and continues
// from each visited job's ID sees every job failed when the walk began,
// in ID order; a job that fails during the walk is visited only if its ID
// is above the walk's position.
func (c *Cluster) FailedAfter(id int) *Job {
	i, found := slices.BinarySearch(c.failed, id)
	if found {
		i++
	}
	if i == len(c.failed) {
		return nil
	}
	return c.jobs[c.failed[i]-1]
}

// Submit queues a job (bsub). wantServer may be empty for scheduler
// placement; users at the paper's site mostly picked servers by hand.
func (c *Cluster) Submit(name, user, wantServer string, cpu, memMB, disk float64, work simclock.Time) *Job {
	j := &Job{
		ID: len(c.jobs) + 1, Name: name, User: user, WantServer: wantServer,
		CPUDemand: cpu, MemMB: memMB, DiskLoad: disk, Work: work,
		State: JobPending,
	}
	c.jobs = append(c.jobs, j)
	c.pending = append(c.pending, j)
	c.Dispatch()
	return j
}

// eligible reports whether a service can accept one more job now.
func (c *Cluster) eligible(name string) bool {
	limit, isTarget := c.limits[name]
	if !isTarget {
		return false
	}
	s := c.dir.Get(name)
	if s == nil || !s.Running() {
		return false
	}
	return len(c.running[name]) < limit
}

// pickServer is the default placement when the user expressed no choice:
// first eligible target in name order (plain LSF has no knowledge of the
// DGSPL; the intelliagent path supplies its own choice via Requeue).
func (c *Cluster) pickServer() string {
	for _, n := range c.targets {
		if c.eligible(n) {
			return n
		}
	}
	return ""
}

// Dispatch starts every pending job that can be placed (mbatchd cycle).
func (c *Cluster) Dispatch() {
	var still []*Job
	for _, j := range c.pending {
		target := j.WantServer
		if target == "" {
			target = c.pickServer()
		}
		if target == "" || !c.eligible(target) {
			still = append(still, j)
			continue
		}
		c.start(j, target)
	}
	c.pending = still
}

// start places a running job on the named database service.
func (c *Cluster) start(j *Job, service string) {
	s := c.dir.Get(service)
	host := s.Host
	p := host.Spawn("lsf_job_"+j.Name, j.User, j.CPUDemand, j.MemMB)
	if p == nil {
		c.fail(j)
		return
	}
	host.AddDiskActivity(j.DiskLoad)
	s.Connect()
	j.State = JobRunning
	j.Server = service
	j.Attempts++
	j.pid = p.PID
	if c.running[service] == nil {
		c.running[service] = make(map[int]*Job)
	}
	c.running[service][j.ID] = j

	// Completion time scales with server power and current contention.
	slow := 1.0 / host.Model.CPUSpeed
	if u := host.CPUUtilisation(); u > 0.7 {
		slow *= 1 + 3*(u-0.7) // contention tax up to 1.9x at saturation
	}
	dur := simclock.Time(float64(j.Work) * slow)
	j.finishEv = c.sim.After(dur, "lsf-finish", func(simclock.Time) { c.finish(j) })
}

// finish completes a running job if its database survived the run.
func (c *Cluster) finish(j *Job) {
	if j.State != JobRunning {
		return
	}
	s := c.dir.Get(j.Server)
	if s == nil || !s.Running() {
		c.failRunning(j)
		return
	}
	c.release(j)
	j.State = JobDone
	c.Completed++
	c.Dispatch()
}

// release frees the job's slot and host resources.
func (c *Cluster) release(j *Job) {
	if m := c.running[j.Server]; m != nil {
		delete(m, j.ID)
	}
	if s := c.dir.Get(j.Server); s != nil {
		s.Host.Kill(j.pid)
		s.Host.AddDiskActivity(-j.DiskLoad)
		s.Disconnect()
	}
	j.pid = 0
	if j.finishEv != nil {
		j.finishEv.Cancel()
		j.finishEv = nil
	}
}

// fail marks a pending/unstarted job failed and enters it in the failed
// index.
func (c *Cluster) fail(j *Job) {
	j.State = JobFailed
	c.Failed++
	i, _ := slices.BinarySearch(c.failed, j.ID)
	c.failed = slices.Insert(c.failed, i, j.ID)
}

// failRunning releases and fails a running job.
func (c *Cluster) failRunning(j *Job) {
	c.release(j)
	c.fail(j)
}

// FailJobsOn fails every running job on the named service, in ID order —
// what happens when a database crashes in the middle of its jobs.
func (c *Cluster) FailJobsOn(service string) {
	m := c.running[service]
	out := make([]*Job, 0, len(m))
	for _, j := range m {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	for _, j := range out {
		c.failRunning(j)
	}
}

// Requeue resubmits a failed job to a specific server (brequeue -m), the
// operation the intelliagents drive from the DGSPL shortlist. An empty
// server re-enters the default queue.
func (c *Cluster) Requeue(id int, server string) error {
	if id < 1 || id > len(c.jobs) {
		return fmt.Errorf("lsf: no such job %d", id)
	}
	j := c.jobs[id-1]
	if j.State != JobFailed {
		return fmt.Errorf("lsf: job %d is %s, not EXIT", id, j.State)
	}
	if i, found := slices.BinarySearch(c.failed, id); found {
		c.failed = slices.Delete(c.failed, i, i+1)
	}
	j.State = JobPending
	j.WantServer = server
	c.pending = append(c.pending, j)
	c.Dispatch()
	return nil
}

// CountByState tallies jobs per state (bjobs summary).
func (c *Cluster) CountByState() map[JobState]int {
	out := make(map[JobState]int)
	for _, j := range c.jobs {
		out[j.State]++
	}
	return out
}
