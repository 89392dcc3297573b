// Batchrescue: a walkthrough of §4's LSF management. Analysts submit batch
// jobs to a hand-picked database server; the server crashes mid-job; the
// administration servers notice the failed jobs on their next sweep, read
// the freshest DGSPL, and resubmit every job to the best available server
// of equal or higher power — while the local service agent restarts the
// crashed database in parallel.
package main

import (
	"fmt"
	"log"

	qoscluster "repro"
	"repro/internal/agents"
	"repro/internal/lsf"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

func main() {
	// A paper-shaped demo site: six database hosts with the E10K/E4500
	// spread and the 3:1 Oracle/Sybase mix, declared via Cycle/Phases the
	// way the canned paper topology is.
	topo := qoscluster.Topology{
		Name: "demo-dc", Geo: "UK",
		Tiers: []qoscluster.Tier{
			{Name: "db", Role: "database", Hosts: 6, IPBlock: "10.2.0",
				Hardware: []string{"E10K", "E4500", "E4500"},
				Services: []qoscluster.ServiceTemplate{
					{Kind: "oracle", Name: "ORA-%03d", Port: 1521, Cycle: 4, Phases: []int{0, 1, 2}, LSFTarget: true},
					{Kind: "sybase", Name: "SYB-%03d", Port: 4100, Cycle: 4, Phases: []int{3}, LSFTarget: true},
					{Kind: "lsf", Name: "LSF-{host}"},
				}},
			{Name: "tx", Role: "transaction", Hosts: 1, IPBlock: "10.3.0",
				Hardware: []string{"E450"},
				Services: []qoscluster.ServiceTemplate{
					{Kind: "feedhandler", Name: "FEED-%03d", Port: 7000, PortStep: 1},
				}},
			{Name: "fe", Role: "frontend", Hosts: 1, IPBlock: "10.4.0",
				Hardware: []string{"SP2"},
				Services: []qoscluster.ServiceTemplate{
					{Kind: "frontend", Name: "FE-%03d", Port: 8000, PortStep: 1, DependsOn: "db"},
				}},
		},
	}
	site, err := qoscluster.NewSite(topo,
		qoscluster.WithSeed(3),
		qoscluster.WithMode(qoscluster.ModeAgents),
		qoscluster.WithNoFaults(),
	)
	if err != nil {
		log.Fatal(err)
	}
	must(site.Run(simclock.Hour)) // agents settle; first DGSPLs generated

	// The user hand-picks ORA-002 (an E4500) for three overnight jobs.
	victim := site.Dir.Get("ORA-002")
	var jobs []*lsf.Job
	for i := 0; i < 3; i++ {
		j := site.LSF.Submit(fmt.Sprintf("risk-model-%d", i+1), "analyst12",
			victim.Spec.Name, 1.0, 256, 0.1, 3*simclock.Hour)
		jobs = append(jobs, j)
	}
	fmt.Printf("submitted %d jobs to %s (%s, power %.1f)\n",
		len(jobs), victim.Spec.Name, victim.Host.Model.Name, victim.Host.Model.Power())

	// An hour in, the database crashes mid-job.
	must(site.Run(site.Sim.Now() + simclock.Hour))
	site.Sim.Schedule(site.Sim.Now(), "crash", func(now simclock.Time) {
		victim.Crash()
		site.LSF.FailJobsOn(victim.Spec.Name)
		site.Registry.Add(metrics.CatMidCrash, victim.Host.Name,
			agents.ServiceAspect(victim.Spec.Name), "demo", false, now, nil)
		fmt.Printf("\n%v: %s crashed with %d jobs running\n", now, victim.Spec.Name, len(jobs))
	})

	// Give the admin sweep one cron period to act.
	must(site.Run(site.Sim.Now() + 15*simclock.Minute))

	fmt.Println("\nafter the administration servers' batch sweep:")
	for _, j := range jobs {
		dest := site.Dir.Get(j.Server)
		fmt.Printf("  job %d %-14s -> %s on %s (%s, power %.1f), attempts=%d\n",
			j.ID, j.State, j.Server, dest.Host.Name, dest.Host.Model.Name,
			dest.Host.Model.Power(), j.Attempts)
	}
	fmt.Printf("admin resubmissions: %d\n", site.Admin.Resubmissions)

	// Show the shortlist the decision came from.
	fmt.Println("\nDGSPL shortlist for oracle (best first):")
	for _, e := range site.Admin.Shortlist("oracle") {
		fmt.Printf("  %-8s %-8s load=%.2f slots-free=%d\n", e.AppName, e.ServerType, e.Load, e.SlotsFree())
	}

	// Run to completion: jobs finish on their new servers, and the crashed
	// database is long since restarted by its service agent.
	must(site.Run(site.Sim.Now() + 8*simclock.Hour))
	fmt.Println()
	for _, j := range jobs {
		fmt.Printf("  job %d final state %s on %s\n", j.ID, j.State, j.Server)
	}
	fmt.Printf("%s is %v again (restarted by its intelliagent)\n", victim.Spec.Name, victim.State())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
