package experiments

import (
	"bytes"
	"strings"
	"testing"

	qoscluster "repro"
)

func TestParseTierFaultScale(t *testing.T) {
	good, err := ParseTierFaultScale(" web=2, db=0.5 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 2 || good["web"] != 2 || good["db"] != 0.5 {
		t.Errorf("parsed %v", good)
	}
	if m, err := ParseTierFaultScale(""); err != nil || m != nil {
		t.Errorf("empty spec: %v, %v", m, err)
	}
	for _, bad := range []string{"web", "=2", "web=", "web=x", "web=-1", "web=2,web=3", ","} {
		if _, err := ParseTierFaultScale(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestTierFaultsCampaignAxis runs a real two-cell campaign over the
// tiered webfarm — default weights vs the web tier at 4x — and checks the
// cells aggregate separately, carry per-tier metric rows, render with the
// significance column, and stay byte-identical across worker counts.
func TestTierFaultsCampaignAxis(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 7, Days: 5, Sites: []string{"webfarm"}, TierFaultScales: []string{"", "web=4"}, Trials: 2}
	m, err := CampaignMatrix("before", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.TierFaults) != 2 {
		t.Fatalf("matrix tier-faults axis = %v", m.TierFaults)
	}
	cfg.Workers = 1
	res1, err := Campaign("before", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if errs := res1.Errs(); len(errs) > 0 {
		t.Fatalf("%d failed trials; first: %s", len(errs), errs[0].Err)
	}
	if len(res1.Groups) != 2 || res1.Groups[1].TierFaults != "web=4" {
		t.Fatalf("groups wrong: %+v", res1.Groups)
	}
	for _, g := range res1.Groups {
		if _, ok := g.Stats["incidents_tier/web"]; !ok {
			t.Errorf("group %q missing per-tier metric rows", qoscluster.GroupLabel(g.Cell))
		}
	}
	out := qoscluster.FormatCampaign(res1)
	if !strings.Contains(out, "tierfaults=web=4") || !strings.Contains(out, "p-vs-first") {
		t.Errorf("FormatCampaign missing axis label or significance column:\n%s", out)
	}

	cfg.Workers = 8
	res8, err := Campaign("before", cfg)
	if err != nil {
		t.Fatal(err)
	}
	js1, err1 := res1.JSON()
	js8, err8 := res8.JSON()
	if err1 != nil || err8 != nil {
		t.Fatal(err1, err8)
	}
	if !bytes.Equal(js1, js8) {
		t.Errorf("tier-faults campaign JSON differs between 1 and 8 workers:\n%s", firstDiff(js1, js8))
	}
}

// TestTierFaultsRejectedForRigScenarios: the axis has no meaning for the
// fixed one-host overhead rigs.
func TestTierFaultsRejectedForRigScenarios(t *testing.T) {
	cfg := Config{Seed: 7, TierFaultScales: []string{"web=2"}}
	if _, err := CampaignMatrix("overhead", cfg, 2); err == nil ||
		!strings.Contains(err.Error(), "tierfaults") {
		t.Errorf("rig scenario accepted the tier-faults axis: %v", err)
	}
	cfg.TierFaultScales = []string{"web=bogus"}
	if _, err := CampaignMatrix("before", cfg, 2); err == nil {
		t.Error("malformed tier-faults spec passed matrix validation")
	}
}

// TestTierFaultsDuplicateCellsRejected: duplicate axis cells would fold
// into one aggregation group (same group key), silently doubling its
// seeds; the matrix must reject them up front.
func TestTierFaultsDuplicateCellsRejected(t *testing.T) {
	cfg := Config{Seed: 7, Sites: []string{"webfarm"}, TierFaultScales: []string{"", "web=2", ""}}
	if _, err := CampaignMatrix("before", cfg, 2); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate tier-faults cells accepted: %v", err)
	}
}

// TestTierFaultsUnknownTierRejected: a -tierfaults cell naming a tier
// that no selected site's topology declares must fail at matrix-build
// time with a contextual error — before, it silently weighted nothing
// until NewSite rejected it mid-campaign.
func TestTierFaultsUnknownTierRejected(t *testing.T) {
	cfg := Config{Seed: 7, Sites: []string{"small", "webfarm"}, TierFaultScales: []string{"", "bogus=4"}}
	_, err := CampaignMatrix("before", cfg, 2)
	if err == nil {
		t.Fatal("unknown tier passed matrix validation")
	}
	for _, want := range []string{`"bogus"`, "small", "webfarm", "no selected site"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestTierFaultsScopedToEachSite: in a multi-site sweep a tier only some
// sites declare is legal — trials scope the spec to their own topology —
// and the campaign completes with no failed trials on either site.
func TestTierFaultsScopedToEachSite(t *testing.T) {
	t.Parallel()
	// webfarm declares "web"; small does not (its tiers are db/tx/fe),
	// so the web=4 cell must scale webfarm and no-op on small.
	cfg := Config{Seed: 7, Days: 3, Sites: []string{"small", "webfarm"}, TierFaultScales: []string{"web=4"},
		Trials: 1, Exec: Exec{Workers: 2}}
	if _, err := CampaignMatrix("before", cfg, 1); err != nil {
		t.Fatalf("partially-present tier rejected: %v", err)
	}
	res, err := Campaign("before", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if errs := res.Errs(); len(errs) > 0 {
		t.Fatalf("%d failed trials; first: %s", len(errs), errs[0].Err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("want one group per site, got %+v", res.Groups)
	}
}
