package qoscluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/simclock"
)

// TestManualYearBMCAlertDigest pins what the BMC monitors observably do
// over a paper-site manual year (seed 7): every console alert — time,
// host, subject and probe detail, in send order — and each monitor's
// alert count. No campaign metric reads the polls (manual detection is
// the operator model's), so the campaign goldens cannot see a poll moved
// in time or reordered against the faults, repairs and workload around
// it; this digest, recorded while every monitor still ran its own heap
// ticker, can.
func TestManualYearBMCAlertDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("a 365-day paper-site run; run without -short for the full gate")
	}
	site := mustSite(t, PaperTopology(), WithSeed(7), WithMode(ModeManual))
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
	const want = 0x0c9e4d26043533e3
	if got := h.Sum64(); got != want {
		t.Errorf("BMC alert digest = %#x over %d alerts, want %#x: the monitors' polls moved", got, alerts, uint64(want))
	}
}
