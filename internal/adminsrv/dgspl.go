package adminsrv

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/lsf"
	"repro/internal/notify"
	"repro/internal/ontology"
	"repro/internal/simclock"
)

// GenerateDGSPL assembles the datacentre-wide service list from the latest
// DLSPs plus live LSF slot accounting, writes one file per application type
// to the shared NFS pool, and returns the combined list. The paper's admin
// servers do this "per database type every 15 minutes on average".
func (p *Pair) GenerateDGSPL(now simclock.Time) *ontology.DGSPL {
	if !p.Active().Host.Up() {
		return nil
	}
	servers := make([]string, 0, len(p.profiles))
	n := 0
	for s, prof := range p.profiles {
		servers = append(servers, s)
		n += len(prof.Services)
	}
	sort.Strings(servers)
	list := &ontology.DGSPL{GeneratedAt: now, Entries: make([]ontology.DGSPLEntry, 0, n)}
	for _, server := range servers {
		prof := p.profiles[server]
		geo, site := "", ""
		if w := p.hosts[server]; w != nil {
			geo, site = w.host.Geo, w.host.Site
		}
		for _, s := range prof.Services {
			e := ontology.DGSPLEntry{
				Server:     prof.Server,
				ServerType: prof.Model,
				OS:         prof.OS,
				CPUs:       prof.CPUs,
				MemoryMB:   prof.MemoryMB,
				AppName:    s.Name,
				AppType:    s.Kind,
				AppVersion: versionOf(p, s.Name),
				Load:       prof.CPUUtil,
				Users:      prof.Users,
				Geo:        geo,
				Site:       site,
				State:      s.State,
			}
			if p.cfg.LSF != nil {
				e.JobsRunning = p.cfg.LSF.RunningOn(s.Name)
				e.JobsWaiting = p.cfg.LSF.WaitingFor(s.Name)
				e.JobLimit = p.cfg.LSF.SlotLimit(s.Name)
			}
			list.Entries = append(list.Entries, e)
		}
	}
	// One file per application type on the shared pool, written in sorted
	// type order: map order would vary the pool volume's file-creation
	// sequence run to run, and everything downstream of the simulation is
	// held to bit-for-bit replay. Each file's text is one string, and its
	// lines slice it.
	var types []string
	for _, e := range list.Entries {
		if !slices.Contains(types, e.AppType) {
			types = append(types, e.AppType)
		}
	}
	slices.Sort(types)
	fs := p.Active().Host.FS
	for _, appType := range types {
		p.buf = list.AppendText(p.buf[:0], appType)
		p.lines = ontology.AppendLines(p.lines[:0], string(p.buf))
		_ = fs.WriteLines(dgsplPath(appType), p.lines)
	}
	p.latestDGSPL = list
	return list
}

// dgsplPath is where the per-type list for appType lives on the pool.
func dgsplPath(appType string) string { return PoolMount + "/dgspl-" + appType + ".txt" }

func versionOf(p *Pair, svcName string) string {
	if p.cfg.Dir == nil {
		return ""
	}
	if s := p.cfg.Dir.Get(svcName); s != nil {
		return s.Spec.Version
	}
	return ""
}

// LatestDGSPL returns the most recently generated list (nil before the
// first generation).
func (p *Pair) LatestDGSPL() *ontology.DGSPL { return p.latestDGSPL }

// ReadPoolDGSPL decodes the per-type list from the shared pool, as another
// consumer (or a grid resource-discovery mechanism, §5) would.
func (p *Pair) ReadPoolDGSPL(appType string) (*ontology.DGSPL, error) {
	lines, err := p.Active().Host.FS.ReadLines(dgsplPath(appType))
	if err != nil {
		return nil, err
	}
	return ontology.DecodeDGSPL(lines)
}

// powerOf ranks server types for the shortlist; unknown models fall back to
// CPU count.
func powerOf(model string, cpus int) float64 {
	if m, ok := cluster.ModelByName(model); ok {
		return m.Power()
	}
	return float64(cpus)
}

// Shortlist presents the best available servers for a database type, best
// first, from the latest DGSPL.
func (p *Pair) Shortlist(appType string) []ontology.DGSPLEntry {
	if p.latestDGSPL == nil {
		return nil
	}
	return p.latestDGSPL.Shortlist(appType, powerOf)
}

// batchSweep finds failed batch jobs and resubmits each to the best
// available database server from the DGSPL, preferring servers of equal or
// higher power than the one that failed (§4, SLKT-guided selection). Jobs
// that cannot be placed anywhere are escalated to the operators by email.
// It visits the failed jobs in ID order through LSF's failed index, so a
// job that fails during the sweep is visited only if its ID is above the
// sweep's position.
func (p *Pair) batchSweep(now simclock.Time) {
	if !p.Active().Host.Up() || p.cfg.LSF == nil {
		return
	}
	if p.latestDGSPL == nil {
		p.GenerateDGSPL(now)
	}
	for j := p.cfg.LSF.FailedAfter(0); j != nil; j = p.cfg.LSF.FailedAfter(j.ID) {
		target := p.pickResubmitTarget(j)
		if target == "" {
			p.escalateJob(j)
			continue
		}
		if err := p.cfg.LSF.Requeue(j.ID, target); err == nil {
			p.Resubmissions++
		}
	}
}

// pickResubmitTarget chooses the replacement server for a failed job:
// same application type as the old server, available, free slots, equal-
// or-higher power preferred, never the server that just failed.
func (p *Pair) pickResubmitTarget(j *lsf.Job) string {
	appType := p.appTypeOf(j.Server)
	if appType == "" {
		appType = string(firstDBType(p))
	}
	cands := p.Shortlist(appType)
	var failedPower float64
	if e := p.findEntry(j.Server); e != nil {
		failedPower = powerOf(e.ServerType, e.CPUs)
	}
	// First pass: equal or higher power.
	for _, e := range cands {
		if e.AppName == j.Server {
			continue
		}
		if powerOf(e.ServerType, e.CPUs) >= failedPower {
			return e.AppName
		}
	}
	// Second pass: anything available beats nothing ("choosing randomly a
	// server ... although not ideal, significantly decreased downtime").
	for _, e := range cands {
		if e.AppName != j.Server {
			return e.AppName
		}
	}
	return ""
}

func (p *Pair) appTypeOf(svcName string) string {
	if p.cfg.Dir != nil {
		if s := p.cfg.Dir.Get(svcName); s != nil {
			return string(s.Spec.Kind)
		}
	}
	if p.latestDGSPL != nil {
		if e := p.latestDGSPL.Entry(svcName); e != nil {
			return e.AppType
		}
	}
	return ""
}

func firstDBType(p *Pair) string {
	if p.latestDGSPL == nil {
		return "oracle"
	}
	for _, e := range p.latestDGSPL.Entries {
		if e.AppType == "oracle" || e.AppType == "sybase" {
			return e.AppType
		}
	}
	return "oracle"
}

func (p *Pair) findEntry(svcName string) *ontology.DGSPLEntry {
	if p.latestDGSPL == nil {
		return nil
	}
	return p.latestDGSPL.Entry(svcName)
}

// escalateJob emails the operators about an unplaceable job, once per
// failure ("if intelliagents were unable to allocate a server for job
// submission at all ... they emailed human operators").
func (p *Pair) escalateJob(j *lsf.Job) {
	if p.cfg.Notify == nil || p.cfg.OncallEmail == "" {
		return
	}
	if p.jobEscalated == nil {
		p.jobEscalated = map[int]bool{}
	}
	if p.jobEscalated[j.ID] {
		return
	}
	p.jobEscalated[j.ID] = true
	p.cfg.Notify.Send(notify.Email, "adminserver", p.cfg.OncallEmail,
		fmt.Sprintf("batch job %d unplaceable", j.ID),
		fmt.Sprintf("job %q failed on %s (%s); no database server available for resubmission",
			j.Name, j.Server, j.FailReason), "job-unplaceable")
}
