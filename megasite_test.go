package qoscluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// TestMegaSiteTopology pins the shape of the datacentre-scale family: the
// canned megasite is 10k hosts with a ~1% database core, every tier
// validates, and the topology opts into the probe dispatcher.
func TestMegaSiteTopology(t *testing.T) {
	topo, ok := TopologyByName("megasite")
	if !ok {
		t.Fatal("megasite not registered")
	}
	total := 0
	for _, tier := range topo.Tiers {
		total += tier.Hosts
	}
	if total != 10000 {
		t.Errorf("megasite hosts = %d, want 10000", total)
	}
	if topo.Tiers[0].Name != "db" || topo.Tiers[0].Hosts != 100 {
		t.Errorf("db core = %+v, want 100 hosts", topo.Tiers[0])
	}
	if topo.Probes == nil {
		t.Error("megasite should declare a probe spec")
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("megasite invalid: %v", err)
	}

	big := MegaSiteTopology(130000)
	if err := big.Validate(); err != nil {
		t.Errorf("megasite-130000 invalid: %v", err)
	}
	names := map[string]bool{}
	for _, tier := range big.Tiers {
		names[tier.Name] = true
	}
	// 130k hosts minus core exceeds two web chunks.
	for _, want := range []string{"web-a", "web-b", "web-c"} {
		if !names[want] {
			t.Errorf("megasite-130000 missing chunk %s (tiers %v)", want, names)
		}
	}
}

// TestHostIPSpanning pins the multi-/24 address layout: the first 254
// hosts keep the legacy single-block addresses byte-for-byte, later hosts
// increment the third octet.
func TestHostIPSpanning(t *testing.T) {
	tier := Tier{Name: "web", IPBlock: "10.16.0", Hosts: 600}
	cases := []struct {
		i    int
		want string
	}{
		{0, "10.16.0.1"},
		{253, "10.16.0.254"},
		{254, "10.16.1.1"},
		{507, "10.16.1.254"},
		{508, "10.16.2.1"},
	}
	for _, c := range cases {
		if got := tier.hostIP(c.i); got != c.want {
			t.Errorf("hostIP(%d) = %s, want %s", c.i, got, c.want)
		}
	}
	// A non-zero base shifts the span.
	shifted := Tier{Name: "x", IPBlock: "10.2.5", Hosts: 300}
	if got := shifted.hostIP(254); got != "10.2.6.1" {
		t.Errorf("shifted hostIP(254) = %s, want 10.2.6.1", got)
	}
}

// TestTopologyScaleValidation exercises the validation paths that only
// exist at datacentre scale: IP-space exhaustion, span overlap between
// tiers, host-name collisions from widened ordinals, and probe-spec
// bounds — on 10k-host tiers, not just the small-tier cases the original
// suite covered.
func TestTopologyScaleValidation(t *testing.T) {
	base := func() Topology {
		return Topology{
			Name: "scale", Geo: "UK",
			Tiers: []Tier{
				{Name: "web", Role: "frontend", Hosts: 10000, IPBlock: "10.16.0",
					Hardware: []string{"linux-x86"},
					Services: []ServiceTemplate{{Kind: "webserver", Name: "WEB-{host}", Port: 8080}}},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("10k-host tier should validate: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Topology)
		wantErr string
	}{
		{"ip space exhausted", func(tp *Topology) {
			tp.Tiers[0].IPBlock = "10.16.220" // 10000 hosts need 40 blocks from .220
		}, "exhausting the IP space"},
		{"span overlap", func(tp *Topology) {
			// 10k hosts span .0-.39; a second tier at .20 lands inside.
			tp.Tiers = append(tp.Tiers, Tier{
				Name: "cache", Role: "frontend", Hosts: 10, IPBlock: "10.16.20",
				Hardware: []string{"linux-x86"},
				Services: []ServiceTemplate{{Kind: "webserver", Name: "C-{host}", Port: 8081}}})
		}, "share IP block"},
		{"admin span overlap", func(tp *Topology) {
			// 600 hosts from 10.0.255 would wrap into 10.1.x — caught as
			// exhaustion, but a tier based at 10.1.0 span-collides with the
			// reserved administration block even when it never names it.
			tp.Tiers[0].IPBlock = "10.1.0"
		}, "reserved for the administration tier"},
		{"host name collision across tiers", func(tp *Topology) {
			// tier "web" host 2001 is "web2001" — also tier "web2" host 1.
			tp.Tiers = append(tp.Tiers, Tier{
				Name: "web2", Role: "frontend", Hosts: 10, IPBlock: "10.17.0",
				Hardware: []string{"linux-x86"},
				Services: []ServiceTemplate{{Kind: "webserver", Name: "W2-{host}", Port: 8082}}})
		}, "expands in both tier"},
		{"service ordinal collision at scale", func(tp *Topology) {
			// %03d widens at ordinal 1000: "WEB-1000"... stay unique, but a
			// fixed-name template collides with itself across hosts.
			tp.Tiers[0].Services[0].Name = "WEB"
		}, "expands on both"},
		{"probe slots out of range", func(tp *Topology) {
			tp.Probes = &ProbeSpec{Slots: 5000}
		}, "slots out of range"},
		{"negative probe period", func(tp *Topology) {
			tp.Probes = &ProbeSpec{PeriodMinutes: -5}
		}, "period"},
		{"non-numeric ip octet", func(tp *Topology) {
			tp.Tiers[0].IPBlock = "10.sixteen.0"
		}, "octet"},
		{"zero-padded ip octet", func(tp *Topology) {
			tp.Tiers[0].IPBlock = "10.016.0"
		}, "octet"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo := base()
			c.mutate(&topo)
			err := topo.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestResolveTopologyMegaSiteN pins the parameterised family: megasite-N
// resolves (and registers) on demand, malformed or out-of-range names
// do not.
func TestResolveTopologyMegaSiteN(t *testing.T) {
	topo, ok := ResolveTopology("megasite-500")
	if !ok {
		t.Fatal("megasite-500 should resolve")
	}
	total := 0
	for _, tier := range topo.Tiers {
		total += tier.Hosts
	}
	if total != 500 {
		t.Errorf("megasite-500 hosts = %d", total)
	}
	if _, registered := TopologyByName("megasite-500"); !registered {
		t.Error("resolved megasite-500 should be registered for reuse")
	}
	// Registered names still win.
	if topo, ok := ResolveTopology("paper"); !ok || topo.Name != "paper" {
		t.Error("ResolveTopology should pass through registered names")
	}
	for _, bad := range []string{
		"megasite-", "megasite-0", "megasite-07", "megasite-99", // below minimum
		"megasite-130001", "megasite-9999999", "megasite-abc", "megasite-1e4",
		"gigasite-500",
	} {
		if _, ok := ResolveTopology(bad); ok {
			t.Errorf("%q should not resolve", bad)
		}
	}
}

// TestMegaSiteJSONRoundTrip extends the canonical-JSON contract to the
// probe spec and the scale family: the strict loader accepts what JSON()
// emits and returns the identical topology.
func TestMegaSiteJSONRoundTrip(t *testing.T) {
	topo, _ := TopologyByName("megasite")
	js, err := topo.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadTopology(strings.NewReader(string(js)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topo, back) {
		t.Error("megasite JSON round trip changed the topology")
	}
	if back.Probes == nil {
		t.Error("probe spec lost in round trip")
	}
}

// TestProbeEventReduction is the tentpole's scheduler-economy gate on the
// paper site: with the probe dispatcher enabled, the batched path must
// issue the same probes as the per-service reference path — with an
// identical simulation outcome — using >= 10x fewer scheduler events for
// the probe subsystem.
func TestProbeEventReduction(t *testing.T) {
	topo := PaperTopology()
	topo.Probes = &ProbeSpec{}
	run := func(opts ...Option) *Site {
		site, err := NewSite(topo, append([]Option{WithSeed(11)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := site.Run(simclock.Day); err != nil {
			t.Fatal(err)
		}
		return site
	}
	batched := run()
	ref := run(WithReferenceProbes())

	if !reflect.DeepEqual(batched.Report(), ref.Report()) {
		t.Errorf("batched probe path diverged from reference:\n%+v\n%+v", batched.Report(), ref.Report())
	}
	if got, want := batched.Probes.Probes(), ref.Probes.Probes(); got != want {
		t.Errorf("probe counts differ: batched %d, reference %d", got, want)
	}
	if b := batched.Probes.Batches(); b == 0 || batched.Probes.Probes()/b < 10 {
		t.Errorf("coalescing factor %d probes / %d batches < 10x", batched.Probes.Probes(), b)
	}
	if ref.Probes.Batches() != 0 {
		t.Errorf("reference path fired %d batch walks, want 0", ref.Probes.Batches())
	}
	// Each reference probe is its own scheduler event; batched walks
	// replace them wholesale, so total fired events drop by ~the probe
	// count.
	saved := ref.Sim.Fired() - batched.Sim.Fired()
	if saved < uint64(batched.Probes.Probes())/2 {
		t.Errorf("batched path saved only %d scheduler events over %d probes", saved, batched.Probes.Probes())
	}
}

// TestProbeDetection pins the probe engine's hook into the fault
// pipeline: a healthy site probes clean, and a dead host turns its
// members' probes into failures on every cycle.
func TestProbeDetection(t *testing.T) {
	topo := SmallTopology()
	topo.Probes = &ProbeSpec{}
	site, err := NewSite(topo, WithSeed(3), WithNoFaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Run(1 * simclock.Hour); err != nil {
		t.Fatal(err)
	}
	if site.Probes.Fails() != 0 || site.Probes.Probes() == 0 {
		t.Fatalf("healthy site should probe clean: %d of %d probes failed",
			site.Probes.Fails(), site.Probes.Probes())
	}
	site.DC.Host("db001").Crash()
	if err := site.Run(2 * simclock.Hour); err != nil {
		t.Fatal(err)
	}
	// An hour of 5-minute probes fails each of db001's services at least
	// five times.
	members := len(site.Dir.OnHost("db001"))
	if members == 0 {
		t.Fatal("db001 hosts no probed service")
	}
	if got := site.Probes.Fails(); got < int64(5*members) {
		t.Errorf("fails = %d after an hour with %d services down, want >= %d", got, members, 5*members)
	}
}

// TestMegaSiteSublinearScaling is the scale gate: a 10x host-count jump
// (1k → 10k) must cost measurably less than 10x the scheduler events per
// sim-day, because probe dispatch coalesces per (tier, slot) instead of
// per service.
func TestMegaSiteSublinearScaling(t *testing.T) {
	day := func(name string) (fired uint64, probes, batches int64) {
		topo, ok := ResolveTopology(name)
		if !ok {
			t.Fatalf("resolve %s", name)
		}
		site, err := NewSite(topo, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if err := site.Run(simclock.Day); err != nil {
			t.Fatal(err)
		}
		return site.Sim.Fired(), site.Probes.Probes(), site.Probes.Batches()
	}
	fired1k, probes1k, batches1k := day("megasite-1000")
	fired10k, probes10k, batches10k := day("megasite")
	if probes10k < 9*probes1k {
		t.Errorf("probe coverage should scale with hosts: %d vs %d", probes1k, probes10k)
	}
	// Batch walks are per (tier, slot, cycle): constant in host count.
	if batches10k > 2*batches1k {
		t.Errorf("batch walks should not scale with hosts: %d vs %d", batches1k, batches10k)
	}
	if fired10k >= 8*fired1k {
		t.Errorf("scheduler events scaled superlinearly: %d at 1k hosts, %d at 10k", fired1k, fired10k)
	}
}
