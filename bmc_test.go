package qoscluster

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/simclock"
)

// TestManualDayMonitorsIdleWithoutPolls: a manual site installs one
// monitor per database host, and none of them polls, so each daemon stays
// resident at its idle footprint.
func TestManualDayMonitorsIdleWithoutPolls(t *testing.T) {
	idle := baseline.DefaultFootprint()
	site := mustSite(t, PaperTopology(), WithSeed(7), WithMode(ModeManual))
	mustRun(t, site, simclock.Day)
	if got, want := len(site.Monitors), len(site.DC.ByRole(cluster.RoleDatabase)); got != want {
		t.Fatalf("%d monitors, want one per database host (%d)", got, want)
	}
	for i, m := range site.Monitors {
		if !m.Resident() || m.CPUPercent() != idle.CPUBasePct || m.MemMB() != idle.MemBaseMB {
			t.Errorf("monitor %d: resident=%v at %.3f%% / %.1f MB, want resident at the idle %.3f%% / %.1f MB",
				i, m.Resident(), m.CPUPercent(), m.MemMB(), idle.CPUBasePct, idle.MemBaseMB)
		}
	}
}
