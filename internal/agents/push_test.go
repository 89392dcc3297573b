package agents

import (
	"testing"

	"repro/internal/adminsrv"
	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/svc"
)

// BenchmarkStatusPush measures one status-agent run on a paper database
// host — an Oracle instance and its LSF daemons — whose DLSP push goes
// through a router over the private and public networks to the
// administration pair's VIP. Each iteration runs the agent and advances
// the simulation 5 minutes, so the end-of-run reap and the deliveries of
// the DLSP and the agent-ok report both fire.
func BenchmarkStatusPush(b *testing.B) {
	sim := simclock.New(1)
	host := cluster.NewHost(sim, "db001", "10.0.0.1", cluster.ModelE4500, cluster.RoleDatabase, "london-dc1", "UK")
	primary := cluster.NewHost(sim, "admin01", "10.9.0.1", cluster.ModelE450, cluster.RoleAdmin, "london-dc1", "UK")
	standby := cluster.NewHost(sim, "admin02", "10.9.0.2", cluster.ModelE450, cluster.RoleAdmin, "london-dc1", "UK")
	dir := svc.NewDirectory()
	for _, spec := range []svc.Spec{svc.OracleSpec("ORA-001", 1521), svc.LSFSpec("LSF-db001")} {
		s, err := svc.New(sim, spec, host)
		if err != nil {
			b.Fatal(err)
		}
		dir.Add(s)
		if err := s.Start(nil); err != nil {
			b.Fatal(err)
		}
	}
	priv := netsim.New(sim, "private", simclock.Time(1e6), 0.1) // 1ms, as sites build it
	pub := netsim.New(sim, "public", 2*simclock.Time(1e6), 0.2)
	pair, err := adminsrv.New(adminsrv.Config{Sim: sim, Primary: primary, Standby: standby,
		Pool: fsim.NewVolume(), Networks: []*netsim.Network{priv, pub}, Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	pair.Watch(host)
	priv.Attach(host.Name, nil)
	pub.Attach(host.Name, nil)
	router := netsim.NewRouter(priv, pub)
	a, err := NewStatusAgent(agent.Config{Host: host, Services: dir,
		Report: func(kind, payload string) {
			_, _ = router.Send(netsim.Message{From: host.Name, To: adminsrv.VIP, Kind: kind, Payload: payload})
		}})
	if err != nil {
		b.Fatal(err)
	}
	sim.RunUntil(10 * simclock.Minute)
	if !dir.Get("ORA-001").Running() {
		b.Fatal("oracle not running")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		a.Run(sim)
		sim.RunUntil(sim.Now() + 5*simclock.Minute)
	}
	b.StopTimer()
	if pair.DLSPReceived != b.N || pair.Profiles() != 1 {
		b.Fatalf("admin pair received %d DLSPs from %d hosts over %d runs", pair.DLSPReceived, pair.Profiles(), b.N)
	}
}
