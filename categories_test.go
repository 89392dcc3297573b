package qoscluster

// Per-category end-to-end tests: each Figure-2 error category is injected
// on its own into an agent-operated site, and the full pipeline — concrete
// breakage, agent (or admin-sweep) detection, repair or human escalation —
// must close the incident.

import (
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// runCategory injects only the given category at a high rate for a few
// days under agents and returns the site.
func runCategory(t *testing.T, cat metrics.Category, window faultinject.Window, days int) *Site {
	t.Helper()
	site := mustSite(t, SmallTopology(), WithSeed(13), WithMode(ModeAgents),
		func(o *Options) {
			o.Faults = []faultinject.Spec{{
				Category: cat, MeanInterarrival: simclock.Day, Window: window,
			}}
		})
	mustRun(t, site, simclock.Time(days)*simclock.Day)
	if n := len(site.Ledger.Incidents()); n == 0 {
		t.Fatalf("%s: no incidents injected", cat)
	}
	return site
}

// assertHandled checks every non-trailing incident was detected fast and
// resolved by the expected party.
func assertHandled(t *testing.T, site *Site, cat metrics.Category, wantResolver string, maxDetect simclock.Time) {
	t.Helper()
	now := site.Sim.Now()
	for i, inc := range site.Ledger.Incidents() {
		// Incidents injected in the last hours may legitimately still be
		// in-flight (human repairs take hours); skip the trailing edge.
		if !inc.Resolved && now-inc.StartedAt < 12*simclock.Hour {
			continue
		}
		if !inc.Detected {
			t.Errorf("%s incident %d never detected", cat, i)
			continue
		}
		if inc.DetectionLatency() > maxDetect {
			t.Errorf("%s incident %d detection took %v (max %v)", cat, i, inc.DetectionLatency(), maxDetect)
		}
		if !inc.Resolved {
			t.Errorf("%s incident %d still open after %v", cat, i, now-inc.StartedAt)
			continue
		}
		if wantResolver != "" && inc.ResolvedBy != wantResolver {
			t.Errorf("%s incident %d resolved by %s, want %s", cat, i, inc.ResolvedBy, wantResolver)
		}
	}
}

func TestCategoryMidCrash(t *testing.T) {
	site := runCategory(t, metrics.CatMidCrash, faultinject.Overnight, 5)
	assertHandled(t, site, metrics.CatMidCrash, "intelliagent", 6*simclock.Minute)
	// Mid-crash repairs are fast: detection + a ~3 minute Oracle restart.
	if m := metrics.Mean(site.Ledger.MTTRs(nil)); m > 10*simclock.Minute {
		t.Errorf("mid-crash MTTR = %v, want minutes", m)
	}
}

func TestCategoryHuman(t *testing.T) {
	site := runCategory(t, metrics.CatHuman, faultinject.Daytime, 5)
	assertHandled(t, site, metrics.CatHuman, "intelliagent", 6*simclock.Minute)
}

func TestCategoryPerformance(t *testing.T) {
	site := runCategory(t, metrics.CatPerformance, faultinject.Daytime, 5)
	assertHandled(t, site, metrics.CatPerformance, "intelliagent", 6*simclock.Minute)
	// The hog/leaker process must actually be gone from the host.
	for _, h := range site.DC.Hosts() {
		if len(h.PGrep("hog_simulation"))+len(h.PGrep("leak_modelcache")) > 0 && site.Registry.OpenCount() == 0 {
			t.Errorf("culprit process survived on %s after all faults closed", h.Name)
		}
	}
}

func TestCategoryFrontEnd(t *testing.T) {
	site := runCategory(t, metrics.CatFrontEnd, faultinject.Daytime, 5)
	assertHandled(t, site, metrics.CatFrontEnd, "intelliagent", 6*simclock.Minute)
}

func TestCategoryLSF(t *testing.T) {
	site := runCategory(t, metrics.CatLSF, faultinject.Daytime, 5)
	assertHandled(t, site, metrics.CatLSF, "intelliagent", 6*simclock.Minute)
}

func TestCategoryFirewallNet(t *testing.T) {
	site := runCategory(t, metrics.CatFirewallNet, faultinject.Daytime, 5)
	// Network faults: agents detect within a cron period, humans repair.
	assertHandled(t, site, metrics.CatFirewallNet, "oncall-admin", 6*simclock.Minute)
	// Public links must be restored by the repairs.
	for _, inc := range site.Ledger.Incidents() {
		if inc.Resolved && !site.Public.LinkUp(inc.Host) {
			t.Errorf("link on %s still down after resolution", inc.Host)
		}
	}
}

func TestCategoryHardware(t *testing.T) {
	site := runCategory(t, metrics.CatHardware, faultinject.AnyTime, 6)
	// Whole-host faults surface at the admin servers' X+5 sweep.
	assertHandled(t, site, metrics.CatHardware, "oncall-admin", 15*simclock.Minute)
	for i, inc := range site.Ledger.Incidents() {
		if inc.Resolved && inc.DetectedBy != "adminserver" {
			t.Errorf("hardware incident %d detected by %s, want adminserver", i, inc.DetectedBy)
		}
	}
}

func TestCategoryCompletelyDown(t *testing.T) {
	site := runCategory(t, metrics.CatCompletelyDown, faultinject.Daytime, 5)
	// Corruption: agent detects and escalates; restart attempts fail
	// (wedged); a human repairs.
	assertHandled(t, site, metrics.CatCompletelyDown, "oncall-admin", 6*simclock.Minute)
	if site.Bus.CountByTag("agent-escalation") == 0 {
		t.Error("corruption should generate agent escalation emails")
	}
	// After resolution no service stays wedged.
	if site.Registry.OpenCount() == 0 {
		for _, sv := range site.Dir.All() {
			if sv.Wedged {
				t.Errorf("%s still wedged after all incidents closed", sv.Spec.Name)
			}
		}
	}
}

// TestAfterYearResidualShape asserts the paper's qualitative after-year
// claim on a medium window: the residual downtime is dominated by the
// categories agents cannot fix.
func TestAfterYearResidualShape(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-length simulation")
	}
	site := mustSite(t, SmallTopology(), WithSeed(7), WithMode(ModeAgents))
	mustRun(t, site, 60*simclock.Day)
	r := site.Report()
	humanOnly := r.DowntimeHours(metrics.CatFirewallNet) +
		r.DowntimeHours(metrics.CatHardware) +
		r.DowntimeHours(metrics.CatCompletelyDown)
	agentFixable := r.Total.Hours() - humanOnly
	if len(site.Ledger.Incidents()) > 5 && humanOnly > 0 && agentFixable > humanOnly {
		t.Errorf("agent-fixable residual (%.1fh) should not exceed human-only residual (%.1fh)",
			agentFixable, humanOnly)
	}
}
