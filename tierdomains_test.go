package qoscluster

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// tieredTopology is a small three-tier site with both kinds of per-tier
// spec, shared by the validation/round-trip/behaviour tests below.
func tieredTopology() Topology {
	t := paperShaped("tiered", "UK", 4, 2, 3)
	t.Tiers[0].Faults = &FaultsSpec{Rates: map[string]float64{"mid-crash": 2, "human": 0}}
	t.Tiers[1].Workload = &WorkloadSpec{FeedWeight: Weight(1.5)}
	t.Tiers[1].Faults = &FaultsSpec{Blackouts: []Blackout{{FromHour: 22, ToHour: 6}}}
	t.Tiers[2].Workload = &WorkloadSpec{AnalystShare: Weight(2), DiurnalAmplitude: Weight(0.5)}
	t.Tiers[2].Faults = &FaultsSpec{Only: []string{"front-end", "human"}}
	return t
}

func TestTierSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
		want string // substring of the expected error; "" = must validate
	}{
		{"valid specs", func(tp *Topology) {}, ""},
		{"negative analyst share", func(tp *Topology) {
			tp.Tiers[2].Workload.AnalystShare = Weight(-1)
		}, "analyst_share"},
		{"amplitude above 2", func(tp *Topology) {
			tp.Tiers[2].Workload.DiurnalAmplitude = Weight(2.5)
		}, "diurnal_amplitude"},
		{"unknown rate category", func(tp *Topology) {
			tp.Tiers[0].Faults.Rates["disk-gremlins"] = 1
		}, `unknown category "disk-gremlins"`},
		{"negative rate", func(tp *Topology) {
			tp.Tiers[0].Faults.Rates["lsf"] = -2
		}, "fault rate"},
		{"unknown only category", func(tp *Topology) {
			tp.Tiers[2].Faults.Only = append(tp.Tiers[2].Faults.Only, "meteor")
		}, `unknown category "meteor"`},
		{"blackout hour out of range", func(tp *Topology) {
			tp.Tiers[1].Faults.Blackouts[0].ToHour = 24
		}, "out of range"},
		{"full-day blackout", func(tp *Topology) {
			tp.Tiers[1].Faults.Blackouts[0] = Blackout{FromHour: 6, ToHour: 6}
		}, "full day"},
		{"blackouts covering the clock", func(tp *Topology) {
			tp.Tiers[1].Faults.Blackouts = []Blackout{{FromHour: 0, ToHour: 12}, {FromHour: 12, ToHour: 0}}
		}, "all 24 hours"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo := tieredTopology()
			c.mut(&topo)
			err := topo.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestTierSpecJSONRoundTrip(t *testing.T) {
	topo := tieredTopology()
	js, err := topo.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTopology(bytes.NewReader(js))
	if err != nil {
		t.Fatalf("re-load canonical JSON: %v", err)
	}
	js2, err := loaded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, js2) {
		t.Errorf("tiered topology did not survive a JSON round trip:\nfirst:  %s\nsecond: %s", js, js2)
	}
	if !strings.Contains(string(js), `"workload"`) || !strings.Contains(string(js), `"faults"`) {
		t.Errorf("canonical JSON missing tier spec keys:\n%s", js)
	}
}

func TestTierOverrideValidation(t *testing.T) {
	if _, err := NewSite(SmallTopology(), WithTierFaultScale("db", -3)); err == nil ||
		!strings.Contains(err.Error(), "tier-fault-scale") {
		t.Errorf("negative fault scale: err = %v", err)
	}
	site, err := NewSite(SmallTopology(), WithSeed(3), WithTierFaultScale("db", 2))
	if err != nil {
		t.Fatalf("valid fault scale: %v", err)
	}
	if !site.Tiered() {
		t.Error("site with a fault-intensity scale should report tiered")
	}
}

// TestTierWorkloadShapesLoad pins the workload-domain semantics end to
// end: a front-end tier with triple analyst share carries proportionally
// more ambient load than an equal-size tier at the default, and a flat
// (zero-amplitude) tier holds its peak-level load overnight.
func TestTierWorkloadShapesLoad(t *testing.T) {
	topo := Topology{
		Name: "shares", Geo: "UK",
		Tiers: []Tier{
			{Name: "heavy", Role: "frontend", Hosts: 3, IPBlock: "10.8.0", Hardware: []string{"SP2"},
				Services: []ServiceTemplate{{Kind: "frontend", Name: "H-%03d", Port: 8000, PortStep: 1}},
				Workload: &WorkloadSpec{AnalystShare: Weight(3), DiurnalAmplitude: Weight(0)}},
			{Name: "light", Role: "frontend", Hosts: 3, IPBlock: "10.9.0", Hardware: []string{"SP2"},
				Services: []ServiceTemplate{{Kind: "frontend", Name: "L-%03d", Port: 8000, PortStep: 1}}},
			// The default config scales analysts with the LSF-target pool:
			// 100 targets give the tiers the paper's 300 analysts to split.
			{Name: "db", Role: "database", Hosts: 100, IPBlock: "10.7.0", Hardware: []string{"E4500"},
				Services: []ServiceTemplate{{Kind: "oracle", Name: "ORA-%03d", Port: 1521, LSFTarget: true}}},
		},
	}
	site, err := NewSite(topo, WithSeed(5), WithNoFaults())
	if err != nil {
		t.Fatal(err)
	}
	// 03:00: deep overnight, where the diurnal shape is at its 5% floor —
	// the flat tier should still carry its full (peak) share.
	if err := site.Run(3 * simclock.Hour); err != nil {
		t.Fatal(err)
	}
	load := func(tier string) float64 {
		var sum float64
		for _, h := range site.DC.Hosts() {
			if site.tierOf[h.Name] == tier {
				sum += h.CPUUtilisation() * float64(h.Model.CPUs)
			}
		}
		return sum
	}
	heavy, light := load("heavy"), load("light")
	if light <= 0 {
		t.Fatal("light tier carries no load at all")
	}
	// Heavy: 3 shares of 300 analysts at flat (peak) amplitude ≈ 4.5
	// CPUs of ambience; light: 1 share at the 5% overnight floor ≈ 0.08.
	// Both carry ~1 CPU of service baseline, so assert the gap, not a
	// pure ratio.
	if heavy < 3*light || heavy-light < 3 {
		t.Errorf("heavy tier %.3f CPUs vs light %.3f; want the share/amplitude gap to show", heavy, light)
	}
}

// TestTierFaultDomainsSteerInjection pins the fault-domain semantics: with
// one tier excluded from a category and another double-weighted, the
// ledger's incidents land accordingly.
func TestTierFaultDomainsSteerInjection(t *testing.T) {
	topo := paperShaped("steered", "UK", 6, 2, 3)
	// All human errors go to the db tier; none to fe or tx.
	topo.Tiers[0].Faults = &FaultsSpec{Rates: map[string]float64{"human": 1}}
	topo.Tiers[1].Faults = &FaultsSpec{Rates: map[string]float64{"human": 0}}
	topo.Tiers[2].Faults = &FaultsSpec{Rates: map[string]float64{"human": 0}}
	site, err := NewSite(topo, WithSeed(9), func(o *Options) {
		o.Faults = []faultinject.Spec{
			{Category: metrics.CatHuman, MeanInterarrival: 2 * simclock.Day, Window: faultinject.AnyTime},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Run(90 * simclock.Day); err != nil {
		t.Fatal(err)
	}
	byTier := map[string]int{}
	for _, inc := range site.Ledger.Incidents() {
		byTier[site.tierOf[inc.Host]]++
	}
	if byTier["db"] == 0 {
		t.Error("no human errors landed on the only weighted tier over 90 days")
	}
	if byTier["tx"] != 0 || byTier["fe"] != 0 {
		t.Errorf("zero-weight tiers received faults: %v", byTier)
	}
	rows := site.TierSummaries(site.Sim.Now())
	if len(rows) != 3 || rows[0].Tier != "db" || rows[0].Incidents != byTier["db"] {
		t.Errorf("TierSummaries disagree with the ledger: %+v vs %v", rows, byTier)
	}
}

// TestTierBlackoutRespected proves no fault lands on a blacked-out tier
// during its window.
func TestTierBlackoutRespected(t *testing.T) {
	topo := paperShaped("frozen", "UK", 6, 2, 3)
	for i := range topo.Tiers {
		topo.Tiers[i].Faults = &FaultsSpec{Blackouts: []Blackout{{FromHour: 8, ToHour: 18}}}
	}
	site, err := NewSite(topo, WithSeed(13), func(o *Options) {
		o.Faults = []faultinject.Spec{
			{Category: metrics.CatHuman, MeanInterarrival: simclock.Day, Window: faultinject.AnyTime},
			{Category: metrics.CatLSF, MeanInterarrival: simclock.Day, Window: faultinject.AnyTime},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Run(60 * simclock.Day); err != nil {
		t.Fatal(err)
	}
	incs := site.Ledger.Incidents()
	if len(incs) == 0 {
		t.Fatal("no incidents at all; blackout test is vacuous")
	}
	for i, inc := range incs {
		if h := inc.StartedAt.HourOfDay(); h >= 8 && h < 18 {
			t.Errorf("incident %d (%s on %s) started at hour %d, inside the 08-18 blackout",
				i, inc.Category, inc.Host, h)
		}
	}
}

// TestAllZeroAnalystShareIsSafe: validation permits AnalystShare 0 on
// every front-end tier; the spread must degrade to zero analyst load, not
// divide 0/0 and poison host CPU accounting with NaN.
func TestAllZeroAnalystShareIsSafe(t *testing.T) {
	topo := WebFarmTopology()
	zeroed := 0
	for i := range topo.Tiers {
		if name := topo.Tiers[i].Name; name == "web" || name == "fe" {
			topo.Tiers[i].Workload = &WorkloadSpec{AnalystShare: Weight(0)}
			zeroed++
		}
	}
	if zeroed != 2 {
		t.Fatalf("webfarm has %d of the web and fe tiers, want both", zeroed)
	}
	site, err := NewSite(topo, WithSeed(3), WithNoFaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Run(2 * simclock.Day); err != nil {
		t.Fatal(err)
	}
	for _, h := range site.DC.Hosts() {
		if u := h.CPUUtilisation(); u < 0 || u > 1 {
			t.Fatalf("host %s CPU utilisation %v with all-zero analyst shares", h.Name, u)
		}
	}
}

// TestFaultDomainEligibilityGate: tiers with nothing a category's
// injector can break get weight 0, so domain-scoped arrivals never
// no-op against an ineligible tier and dilute the effective rate.
func TestFaultDomainEligibilityGate(t *testing.T) {
	site, err := NewSite(WebFarmTopology(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	weights := func(cat metrics.Category) map[string]float64 {
		out := map[string]float64{}
		for _, d := range site.faultDomains(cat) {
			out[d.Tier] = d.Weight
		}
		return out
	}
	// Only the db tier has LSF targets / LSF daemons.
	for _, cat := range []metrics.Category{metrics.CatMidCrash, metrics.CatLSF} {
		w := weights(cat)
		if w["db"] <= 0 || w["web"] != 0 || w["fe"] != 0 {
			t.Errorf("%s weights = %v; want db-only", cat, w)
		}
	}
	// Only the fe tier deploys front-end services.
	if w := weights(metrics.CatFrontEnd); w["fe"] <= 0 || w["db"] != 0 || w["web"] != 0 {
		t.Errorf("front-end weights = %v; want fe-only", w)
	}
	// Host-scoped categories reach every tier; the webfarm spec doubles
	// hardware pressure on the commodity web boxes and halves the core's.
	if w := weights(metrics.CatHardware); w["db"] != 0.5 || w["web"] != 2 || w["fe"] != 1 {
		t.Errorf("hardware weights = %v; want {db:0.5, web:2, fe:1}", w)
	}
	// The web tier's webserver services are human-error targets; the fe
	// tier's frontend services too; db carries its 0.5 rate.
	if w := weights(metrics.CatHuman); w["db"] != 0.5 || w["web"] != 2 || w["fe"] != 1 {
		t.Errorf("human weights = %v; want {db:0.5, web:2, fe:1}", w)
	}
}

// TestMidCrashRateNotDilutedByDomains: with only one eligible tier, the
// domain machinery must deliver the same number of mid-crash injections
// a site-global campaign would — arrivals must not be wasted on tiers
// that cannot host the category.
func TestMidCrashRateNotDilutedByDomains(t *testing.T) {
	const span = 120 * simclock.Day
	run := func(topo Topology) int {
		site, err := NewSite(topo, WithSeed(21), func(o *Options) {
			o.Faults = []faultinject.Spec{
				{Category: metrics.CatMidCrash, MeanInterarrival: 10 * simclock.Day, Window: faultinject.Overnight},
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := site.Run(span); err != nil {
			t.Fatal(err)
		}
		return site.Ledger.Count(metrics.CatMidCrash)
	}
	specced := run(WebFarmTopology())
	stripped := WebFarmTopology()
	stripped.Name = "webfarm-plain"
	for i := range stripped.Tiers {
		stripped.Tiers[i].Workload = nil
		stripped.Tiers[i].Faults = nil
	}
	plain := run(stripped)
	if plain == 0 {
		t.Fatal("site-global campaign injected nothing; test is vacuous")
	}
	// Different rng draw counts make exact equality too strong; but the
	// specced site must stay in the same ballpark, not a ~5x cut.
	if specced*2 < plain {
		t.Errorf("domain-scoped mid-crash injections %d vs site-global %d; arrivals are being wasted on ineligible tiers",
			specced, plain)
	}
}
