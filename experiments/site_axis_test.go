package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qoscluster "repro"
	"repro/internal/campaign"
)

// TestCampaignMultiSiteSweep is the acceptance gate for the site axis: one
// campaign matrix sweeping the paper site, the scaled site and a
// JSON-defined custom topology, with per-site aggregation groups in the
// FormatCampaign output and byte-identical JSON at 1 and 8 workers.
func TestCampaignMultiSiteSweep(t *testing.T) {
	cfg := Config{
		Seed: 7, Days: 1, Trials: 2,
		Sites: []string{"paper", "small", "../testdata/topology-edge.json"},
	}
	m, err := CampaignMatrix("before", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantSites := []string{"paper", "small", "edge-cache"}
	if len(m.Sites) != 3 || m.Sites[0] != wantSites[0] || m.Sites[1] != wantSites[1] || m.Sites[2] != wantSites[2] {
		t.Fatalf("matrix sites = %v, want %v (JSON file resolved to its declared name)", m.Sites, wantSites)
	}

	run := func(workers int) (*bytesAndText, error) {
		cfg := cfg
		cfg.Workers = workers
		res, err := Campaign("before", cfg)
		if err != nil {
			return nil, err
		}
		for _, tr := range res.Trials {
			if tr.Err != "" {
				t.Fatalf("trial failed: %+v", tr)
			}
		}
		js, err := res.JSON()
		if err != nil {
			return nil, err
		}
		return &bytesAndText{js, qoscluster.FormatCampaign(res)}, nil
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.js, parallel.js) {
		t.Error("multi-site campaign JSON differs between -workers 1 and -workers 8")
	}
	for _, site := range wantSites {
		if !strings.Contains(serial.text, "site="+site) {
			t.Errorf("FormatCampaign missing the per-site row for %q:\n%s", site, serial.text)
		}
	}
}

type bytesAndText struct {
	js   []byte
	text string
}

// TestGoVsJSONTopologyDeterminism is the determinism gate for the loader:
// the same topology, once Go-declared and once round-tripped through a
// JSON file, must produce byte-identical campaign JSON for the same
// seeds.
func TestGoVsJSONTopologyDeterminism(t *testing.T) {
	topo := qoscluster.WebFarmTopology()
	topo.Name = "detgate" // private name: don't disturb the builtin registration
	if err := qoscluster.RegisterTopology(topo); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 11, Days: 1, Sites: []string{"detgate"}, Trials: 2, Exec: Exec{Workers: 4}}
	run := func() []byte {
		res, err := Campaign("after", cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range res.Trials {
			if tr.Err != "" {
				t.Fatalf("trial failed: %+v", tr)
			}
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	fromGo := run()

	// Round-trip the declaration through a JSON file and re-register it
	// from there (ResolveSites replaces the Go registration).
	js, err := topo.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "detgate.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := ResolveSites([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "detgate" {
		t.Fatalf("ResolveSites(%s) = %v, want [detgate]", path, names)
	}
	fromJSON := run()

	if !bytes.Equal(fromGo, fromJSON) {
		t.Error("Go-declared and JSON-loaded topologies produced different campaign JSON")
	}
}

// TestResolveSites covers the canonicalisation rules: registered names
// pass through, files register under their declared name, anything else
// errors.
func TestResolveSites(t *testing.T) {
	names, err := ResolveSites([]string{"small", "../testdata/topology-edge.json"})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "small" || names[1] != "edge-cache" {
		t.Errorf("ResolveSites = %v", names)
	}
	if _, ok := qoscluster.TopologyByName("edge-cache"); !ok {
		t.Error("file-loaded topology should be registered under its declared name")
	}
	if _, err := ResolveSites([]string{"nosuch-site"}); err == nil {
		t.Error("unknown site should error")
	}
	if _, err := RunTrial(campaign.Trial{Cell: campaign.Cell{Scenario: "year", Site: "nosuch-site", Days: 1}}); err == nil {
		t.Error("trial with unknown site should error")
	}

	// A file whose declared name collides with a different registered
	// topology must be rejected, not silently replace it.
	clash := qoscluster.ComputeFarmTopology()
	clash.Name = "small"
	js, err := clash.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clash.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveSites([]string{path}); err == nil {
		t.Error("file redeclaring a registered name as a different topology should error")
	}
	if topo, _ := qoscluster.TopologyByName("small"); len(topo.Tiers) != 3 || topo.Tiers[0].Hosts != 6 {
		t.Error("builtin small topology was clobbered by the rejected file")
	}

	// The same resolved name twice in one sweep folds two axes into one.
	if _, err := ResolveSites([]string{"small", "small"}); err == nil {
		t.Error("duplicate site names should error")
	}
}

// TestRigScenariosRejectMultiSite pins that the fixed one-host overhead
// rigs refuse a multi-site sweep instead of replicating identical
// numbers under per-site labels, and refuse an agent slot count their
// agents, each on its own ticker, would never read.
func TestRigScenariosRejectMultiSite(t *testing.T) {
	for _, name := range []string{"fig3", "fig4", "overhead", "ablate-resident"} {
		m, err := CampaignMatrix(name, Config{Sites: []string{"paper"}}, 2)
		if err != nil {
			t.Errorf("%s with one site: %v", name, err)
		}
		if len(m.Sites) != 0 {
			t.Errorf("%s should carry no site coordinate, got %v", name, m.Sites)
		}
		if _, err := CampaignMatrix(name, Config{Sites: []string{"paper", "small"}}, 2); err == nil {
			t.Errorf("%s should reject a multi-site list", name)
		}
		if _, err := CampaignMatrix(name, Config{AgentSlots: 8}, 2); err == nil ||
			!strings.Contains(err.Error(), "drop -agentslots") {
			t.Errorf("%s with -agentslots 8: err = %v, want a drop -agentslots refusal", name, err)
		}
	}
}
