package faultinject

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

func TestRegistryLifecycle(t *testing.T) {
	led := metrics.NewLedger()
	r := NewRegistry(led)
	repaired := false
	f := r.Add(metrics.CatMidCrash, "db001", "service.ORA-01", "crash", false, simclock.Hour,
		func(simclock.Time) bool { repaired = true; return true })
	if r.OpenCount() != 1 || r.Find("db001", "service.ORA-01") != f {
		t.Fatal("registry lookup broken")
	}
	if r.Find("db001", "other") != nil || r.Find("nope", "service.ORA-01") != nil {
		t.Error("mismatched lookups should return nil")
	}
	r.Detected("db001", "service.ORA-01", simclock.Hour+5*simclock.Minute, "intelliagent")
	if !f.Incident.Detected || f.Incident.DetectedBy != "intelliagent" {
		t.Error("detection not recorded")
	}
	if !r.Resolve("db001", "service.ORA-01", simclock.Hour+10*simclock.Minute, "intelliagent") {
		t.Fatal("resolve failed")
	}
	if !repaired || !f.Incident.Resolved {
		t.Error("repair closure not run or incident open")
	}
	if r.OpenCount() != 0 {
		t.Error("fault should be closed")
	}
	if r.Resolve("db001", "service.ORA-01", 2*simclock.Hour, "x") {
		t.Error("double resolve should report false")
	}
}

func TestResolveFailsWhenRepairFails(t *testing.T) {
	r := NewRegistry(metrics.NewLedger())
	f := r.Add(metrics.CatHardware, "db001", "hardware", "cpu board", true, 0,
		func(simclock.Time) bool { return false })
	if r.Resolve("db001", "hardware", simclock.Hour, "intelliagent") {
		t.Error("resolve should fail when repair fails")
	}
	if f.Incident.Resolved || r.OpenCount() != 1 {
		t.Error("fault must stay open")
	}
}

func TestDetectedUnknownAspectIgnored(t *testing.T) {
	r := NewRegistry(metrics.NewLedger())
	r.Detected("ghost", "anything", simclock.Hour, "agent") // must not panic
}

func TestOpenOnOrderAndHosts(t *testing.T) {
	r := NewRegistry(metrics.NewLedger())
	r.Add(metrics.CatLSF, "b-host", "lsf", "", false, 0, nil)
	r.Add(metrics.CatHuman, "a-host", "config", "", false, simclock.Hour, nil)
	r.Add(metrics.CatLSF, "b-host", "lsf2", "", false, 2*simclock.Hour, nil)
	if got := r.OpenOn("b-host"); len(got) != 2 || got[0].Aspect != "lsf" {
		t.Errorf("OpenOn = %v", got)
	}
	if got := r.OpenOn("a-host"); len(got) != 1 || got[0].Aspect != "config" {
		t.Errorf("OpenOn(a-host) = %v", got)
	}
}

func TestResolveFaultDirect(t *testing.T) {
	r := NewRegistry(metrics.NewLedger())
	f := r.Add(metrics.CatFrontEnd, "fe1", "service.FE-01", "", false, 0, nil)
	if !r.ResolveFault(f, simclock.Hour, "intelliagent") {
		t.Fatal("direct resolve failed")
	}
	if r.ResolveFault(f, 2*simclock.Hour, "x") {
		t.Error("double direct resolve should report false")
	}
	if r.ResolveFault(nil, 0, "x") {
		t.Error("nil fault should report false")
	}
}

func TestWindowContains(t *testing.T) {
	wedDay := 2*simclock.Day + 11*simclock.Hour
	wedNight := 2*simclock.Day + 23*simclock.Hour
	satDay := 5*simclock.Day + 11*simclock.Hour
	if !AnyTime.contains(wedDay) || !AnyTime.contains(wedNight) {
		t.Error("AnyTime should contain everything")
	}
	if !Daytime.contains(wedDay) || Daytime.contains(wedNight) || Daytime.contains(satDay) {
		t.Error("Daytime window wrong")
	}
	if !Overnight.contains(wedNight) || Overnight.contains(wedDay) {
		t.Error("Overnight window wrong")
	}
}

func TestCampaignRate(t *testing.T) {
	sim := simclock.New(42)
	var arrivals []simclock.Time
	c := NewCampaign(sim, func(cat metrics.Category, _ string, now simclock.Time) {
		arrivals = append(arrivals, now)
	})
	c.Start([]Spec{{Category: metrics.CatMidCrash, MeanInterarrival: simclock.Day, Window: AnyTime}})
	sim.RunUntil(100 * simclock.Day)
	n := len(arrivals)
	if n < 70 || n > 140 {
		t.Errorf("arrivals over 100 days with 1/day mean = %d", n)
	}
	if c.Injections(metrics.CatMidCrash) != n {
		t.Error("injection counter mismatch")
	}
}

func TestCampaignWindowBias(t *testing.T) {
	sim := simclock.New(7)
	inWindow, total := 0, 0
	c := NewCampaign(sim, func(cat metrics.Category, _ string, now simclock.Time) {
		total++
		if now.IsOvernight() {
			inWindow++
		}
	})
	c.Start([]Spec{{Category: metrics.CatMidCrash, MeanInterarrival: 12 * simclock.Hour, Window: Overnight}})
	sim.RunUntil(60 * simclock.Day)
	if total == 0 {
		t.Fatal("no arrivals")
	}
	frac := float64(inWindow) / float64(total)
	if frac < 0.95 {
		t.Errorf("only %.0f%% of overnight-biased faults fell overnight", frac*100)
	}
}

func TestCampaignZeroRateSkipped(t *testing.T) {
	sim := simclock.New(1)
	fired := false
	c := NewCampaign(sim, func(metrics.Category, string, simclock.Time) { fired = true })
	c.Start([]Spec{{Category: metrics.CatLSF, MeanInterarrival: 0}})
	sim.RunUntil(10 * simclock.Day)
	if fired {
		t.Error("zero-rate spec must not fire")
	}
}

// TestCampaignDeterminism pins the property replay rests on: a seed's
// arrival schedule (time, category and drawn tier) depends only on the
// seed, the specs and the start time. The second run's injector draws
// from the simulation's shared stream and schedules events at every
// arrival instant, as real injectors and healers do; the schedule must not
// move, which fails if the campaign ever draws from the shared stream.
func TestCampaignDeterminism(t *testing.T) {
	type arrival struct {
		at   simclock.Time
		cat  metrics.Category
		tier string
	}
	run := func(busy bool) []arrival {
		sim := simclock.New(99)
		var arrivals []arrival
		c := NewCampaign(sim, func(cat metrics.Category, tier string, now simclock.Time) {
			arrivals = append(arrivals, arrival{now, cat, tier})
			if busy {
				sim.Rand().Float64()
				sim.Schedule(now, "busy", func(simclock.Time) { sim.Rand().Intn(10) })
				sim.After(sim.Rand().ExpDuration(simclock.Hour), "busy", func(simclock.Time) {})
			}
		})
		c.Start([]Spec{
			{Category: metrics.CatMidCrash, MeanInterarrival: simclock.Day},
			{Category: metrics.CatHuman, MeanInterarrival: 2 * simclock.Day, Window: Daytime},
			{Category: metrics.CatFrontEnd, MeanInterarrival: 18 * simclock.Hour, Domains: []Domain{
				{Tier: "web", Weight: 2, Blackouts: []Blackout{{From: 22, To: 6}}},
				{Tier: "db", Weight: 1},
			}},
		})
		sim.RunUntil(30 * simclock.Day)
		return arrivals
	}
	a, b, busy := run(false), run(false), run(true)
	tiers := map[string]int{}
	for _, x := range a {
		tiers[x.tier]++
	}
	if len(a) < 60 || tiers["web"] == 0 || tiers["db"] == 0 {
		t.Fatalf("schedule too thin to pin: %d arrivals, tiers %v", len(a), tiers)
	}
	for name, other := range map[string][]arrival{"rerun": b, "busy injector": busy} {
		if len(a) != len(other) {
			t.Fatalf("%s: lengths differ: %d vs %d", name, len(a), len(other))
		}
		for i := range a {
			if a[i] != other[i] {
				t.Fatalf("%s: diverged at %d: %+v vs %+v", name, i, a[i], other[i])
			}
		}
	}
}

// TestCampaignDomainWeights pins the domain draw: arrivals split across
// tiers roughly by weight, and zero-weight tiers receive nothing.
func TestCampaignDomainWeights(t *testing.T) {
	sim := simclock.New(5)
	byTier := map[string]int{}
	c := NewCampaign(sim, func(cat metrics.Category, tier string, now simclock.Time) {
		byTier[tier]++
	})
	c.Start([]Spec{{
		Category: metrics.CatHuman, MeanInterarrival: 6 * simclock.Hour,
		Domains: []Domain{
			{Tier: "web", Weight: 3},
			{Tier: "db", Weight: 1},
			{Tier: "never", Weight: 0},
		},
	}})
	sim.RunUntil(200 * simclock.Day)
	if byTier["never"] != 0 {
		t.Errorf("zero-weight tier drew %d arrivals", byTier["never"])
	}
	if byTier[""] != 0 {
		t.Errorf("domain-scoped spec produced %d site-wide arrivals", byTier[""])
	}
	web, db := byTier["web"], byTier["db"]
	if db == 0 {
		t.Fatal("weight-1 tier starved entirely")
	}
	if ratio := float64(web) / float64(db); ratio < 2 || ratio > 4.5 {
		t.Errorf("3:1 weighting produced %d:%d (ratio %.2f)", web, db, ratio)
	}
}

// TestCampaignDomainBlackout: arrivals for a blacked-out domain slide
// past the window.
func TestCampaignDomainBlackout(t *testing.T) {
	sim := simclock.New(8)
	var arrivals []simclock.Time
	c := NewCampaign(sim, func(cat metrics.Category, tier string, now simclock.Time) {
		arrivals = append(arrivals, now)
	})
	c.Start([]Spec{{
		Category: metrics.CatLSF, MeanInterarrival: 8 * simclock.Hour,
		Domains: []Domain{{Tier: "frozen", Weight: 1, Blackouts: []Blackout{{From: 9, To: 17}}}},
	}})
	sim.RunUntil(120 * simclock.Day)
	if len(arrivals) == 0 {
		t.Fatal("no arrivals")
	}
	for _, at := range arrivals {
		if h := at.HourOfDay(); h >= 9 && h < 17 {
			t.Fatalf("arrival at %v falls in the 09-17 blackout (hour %d)", at, h)
		}
	}
}

// TestCampaignAllZeroDomainsSkipped: a spec whose domains all weigh zero
// never fires.
func TestCampaignAllZeroDomainsSkipped(t *testing.T) {
	sim := simclock.New(3)
	fired := false
	c := NewCampaign(sim, func(metrics.Category, string, simclock.Time) { fired = true })
	c.Start([]Spec{{
		Category: metrics.CatHuman, MeanInterarrival: simclock.Hour,
		Domains: []Domain{{Tier: "a", Weight: 0}, {Tier: "b", Weight: 0}},
	}})
	sim.RunUntil(30 * simclock.Day)
	if fired {
		t.Error("all-zero-weight spec fired")
	}
}

// TestBlackoutContainsWrap pins the hour window on both sides of
// midnight: {23, 1} must cover hour 23 and hour 0 only.
func TestBlackoutContainsWrap(t *testing.T) {
	b := Blackout{From: 23, To: 1}
	for h := 0; h < 24; h++ {
		at := simclock.Time(h)*simclock.Hour + 30*simclock.Minute
		want := h == 23 || h == 0
		if got := b.contains(at); got != want {
			t.Errorf("Blackout{23,1}.contains(hour %d) = %v, want %v", h, got, want)
		}
	}
	// Plain window for contrast, and the exact boundary instants: From is
	// inclusive, To exclusive, on the wrapped window too.
	day := Blackout{From: 9, To: 17}
	if !day.contains(9*simclock.Hour) || day.contains(17*simclock.Hour) {
		t.Error("Blackout{9,17} boundary handling wrong")
	}
	if !b.contains(23*simclock.Hour) || b.contains(1*simclock.Hour) {
		t.Error("Blackout{23,1} boundary handling wrong")
	}
	if !b.contains(24 * simclock.Hour) {
		t.Error("Blackout{23,1} must cover midnight itself (hour 0 of day 2)")
	}
}

// TestCampaignDomainBlackoutWrapsMidnight is the regression test for the
// midnight-wrapping blackout slide: a 23:00-01:00 blackout must suppress
// arrivals in hour 23 *and* hour 0 — both sides of the day boundary —
// across a long run with a high arrival rate.
func TestCampaignDomainBlackoutWrapsMidnight(t *testing.T) {
	sim := simclock.New(11)
	var arrivals []simclock.Time
	c := NewCampaign(sim, func(cat metrics.Category, tier string, now simclock.Time) {
		arrivals = append(arrivals, now)
	})
	c.Start([]Spec{{
		Category: metrics.CatMidCrash, MeanInterarrival: 3 * simclock.Hour,
		Domains: []Domain{{Tier: "db", Weight: 1, Blackouts: []Blackout{{From: 23, To: 1}}}},
	}})
	sim.RunUntil(365 * simclock.Day)
	if len(arrivals) < 1000 {
		t.Fatalf("only %d arrivals; rate too low to exercise the window", len(arrivals))
	}
	sides := map[int]bool{22: false, 1: false} // prove we brushed both edges
	for _, at := range arrivals {
		switch h := at.HourOfDay(); h {
		case 23, 0:
			t.Fatalf("arrival at %v falls in the 23:00-01:00 blackout (hour %d)", at, h)
		case 22, 1:
			sides[h] = true
		}
	}
	if !sides[22] || !sides[1] {
		t.Errorf("arrivals never landed adjacent to the blackout (22h: %v, 01h: %v); window may be over-wide",
			sides[22], sides[1])
	}
}
