// Package qoscluster is the public face of the reproduction of Corsava &
// Getov, "Improving Quality of Service in Application Clusters" (IPDPS'03):
// it assembles a simulated Unix application cluster — hosts, services, LSF
// batch tier, private agent network, workload and fault processes — and
// runs it either under the paper's manual operations (BMC-style monitoring
// plus human operators) or under the paper's contribution (intelliagents
// coordinated by an administration-server pair).
//
// Sites are declared as data: a Topology lists tiers of hosts with their
// hardware mix and service templates, and NewSite layers functional
// options over it. The typical flow:
//
//	site, err := qoscluster.NewSite(qoscluster.SmallTopology(),
//		qoscluster.WithSeed(1), qoscluster.WithMode(qoscluster.ModeAgents))
//	if err != nil { ... }
//	if err := site.Run(30 * simclock.Day); err != nil { ... }
//	fmt.Println(site.Report().Format())
//
// PaperTopology, SmallTopology, WebFarmTopology and ComputeFarmTopology
// are registered under the names "paper", "small", "webfarm" and
// "computefarm"; RegisterTopology and LoadTopology add custom sites (in
// Go or from JSON) that scenarios and campaigns then select by name.
package qoscluster
