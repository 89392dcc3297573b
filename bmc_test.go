package qoscluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/simclock"
)

// TestManualYearBMCAlertDigest pins what the BMC monitors observably do
// over a paper-site manual year (seed 7) with their polls turned on:
// every console alert — time, host, subject and probe detail, in send
// order — and each monitor's alert count. No campaign metric reads the
// polls (manual detection is the operator model's, and a manual site
// polls only under WithBaselineMonitors), so the campaign goldens cannot
// see a poll moved in time or reordered against the faults, repairs and
// workload around it; this digest can. The polls sample host load, so
// the digest moves with the offered workload too: it was re-recorded
// (5,863 alerts) when the `paper` spec became every built-in site's
// default workload, with the poll code unchanged.
func TestManualYearBMCAlertDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("a 365-day paper-site run; run without -short for the full gate")
	}
	site := mustSite(t, PaperTopology(), WithSeed(7), WithMode(ModeManual), WithBaselineMonitors())
	mustRun(t, site, simclock.Year)
	h := fnv.New64a()
	alerts := 0
	for _, n := range site.Bus.History() {
		if n.Tag == "bmc-alert" {
			alerts++
			fmt.Fprintf(h, "%d|%s|%s|%s\n", n.At, n.From, n.Subject, n.Body)
		}
	}
	for _, m := range site.Monitors {
		fmt.Fprintf(h, "%d\n", m.Alerts)
	}
	if alerts == 0 {
		t.Fatal("no BMC alerts in a manual year; the digest pins nothing")
	}
	const want = 0x446c0a6d82661be7
	if got := h.Sum64(); got != want {
		t.Errorf("BMC alert digest = %#x over %d alerts, want %#x: the monitors' polls moved", got, alerts, uint64(want))
	}
}

// TestManualDayMonitorsIdleWithoutPolls: a manual site installs one
// monitor per database host, but without WithBaselineMonitors none of
// them polls, so each daemon stays resident at its idle footprint and no
// console alert is raised. The same day with the option polls, and the
// footprints follow the hosts' load.
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
		if m.Alerts != 0 {
			t.Errorf("monitor %d raised %d alerts without polling", i, m.Alerts)
		}
	}
	if n := site.Bus.CountByTag("bmc-alert"); n != 0 {
		t.Errorf("%d bmc-alert notifications on the bus without polling", n)
	}

	polled := mustSite(t, PaperTopology(), WithSeed(7), WithMode(ModeManual), WithBaselineMonitors())
	mustRun(t, polled, simclock.Day)
	moved := 0
	for _, m := range polled.Monitors {
		if m.Resident() && m.CPUPercent() != idle.CPUBasePct {
			moved++
		}
	}
	if moved == 0 {
		t.Errorf("no polled monitor left its idle footprint in a day (of %d)", len(polled.Monitors))
	}
}
