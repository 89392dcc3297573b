package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	qoscluster "repro"
	"repro/internal/campaign"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// TestCampaignGoldenNoTierSpecs is the refactor gate for the per-tier
// workload/fault-domain work: topologies that declare no per-tier specs
// and name no workload (paper, small) must produce campaign JSON
// byte-identical to the checked-in goldens
// (testdata/campaign-golden-<site>-<mode>.json). They were recorded at
// the commit before domains landed and regenerated once, when the
// `paper` workload spec became the default of every site that names
// none. Both the fresh-build and the pooled Reset paths are held to the
// goldens.
//
// If this test fails, the domain machinery has leaked into the
// unspecified path — extra random draws, changed arithmetic, new metric
// keys. Fix the engine; regenerate the goldens
// (go run ./scripts/campaigngolden) only for a change that is *supposed*
// to move the default numbers, and say so in the commit message.
func TestCampaignGoldenNoTierSpecs(t *testing.T) {
	for _, site := range []string{"paper", "small"} {
		for _, mode := range []string{"manual", "agents"} {
			t.Run(fmt.Sprintf("%s-%s", site, mode), func(t *testing.T) {
				t.Parallel()
				if testing.Short() && site == "paper" {
					t.Skip("paper site × 2 seeds × 3 runs is the long cell; run without -short for the full gate")
				}
				want, err := os.ReadFile(filepath.Join("..", "testdata",
					fmt.Sprintf("campaign-golden-%s-%s.json", site, mode)))
				if err != nil {
					t.Fatalf("golden: %v", err)
				}
				m := campaign.Matrix{
					Seeds:     campaign.Seeds(7, 2),
					Scenarios: []string{"year"},
					Sites:     []string{site},
					Modes:     []string{mode},
					Days:      1,
				}
				runs := []struct {
					name string
					fn   campaign.RunFunc
				}{
					{"fresh", RunTrial},
					{"pooled", NewPooledRunFunc()},
				}
				for _, run := range runs {
					res, err := campaign.Run("golden", m, 1, run.fn)
					if err != nil {
						t.Fatalf("%s campaign: %v", run.name, err)
					}
					got, err := res.JSON()
					if err != nil {
						t.Fatalf("%s JSON: %v", run.name, err)
					}
					got = append(got, '\n')
					if !bytes.Equal(want, got) {
						t.Errorf("%s path diverged from the pre-refactor golden (site %s, mode %s):\n%s",
							run.name, site, mode, firstDiff(want, got))
					}
				}
			})
		}
	}
}

// TestCampaignGoldenFlashcrowd pins the statistical arrival engine: the
// checked-in flash-crowd workload spec (testdata/workload-flashcrowd.json)
// driving the small site must produce campaign JSON byte-identical to the
// checked-in golden, on both the fresh-build and pooled Reset paths. If
// this fails the spec engine's draws or arithmetic moved; fix the engine,
// or regenerate (go run ./scripts/campaigngolden) only for a change that
// is *supposed* to move the spec-driven numbers, and say so in the commit
// message.
func TestCampaignGoldenFlashcrowd(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile(filepath.Join("..", "testdata", "campaign-golden-small-flashcrowd.json"))
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	wls, err := ResolveWorkloads([]string{filepath.Join("..", "testdata", "workload-flashcrowd.json")})
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	m := campaign.Matrix{
		Seeds:     campaign.Seeds(7, 2),
		Scenarios: []string{"year"},
		Sites:     []string{"small"},
		Modes:     []string{"manual"},
		Days:      1,
		Workloads: wls,
	}
	runs := []struct {
		name string
		fn   campaign.RunFunc
	}{
		{"fresh", RunTrial},
		{"pooled", NewPooledRunFunc()},
	}
	for _, run := range runs {
		res, err := campaign.Run("golden", m, 1, run.fn)
		if err != nil {
			t.Fatalf("%s campaign: %v", run.name, err)
		}
		got, err := res.JSON()
		if err != nil {
			t.Fatalf("%s JSON: %v", run.name, err)
		}
		got = append(got, '\n')
		if !bytes.Equal(want, got) {
			t.Errorf("%s path diverged from the flash-crowd golden:\n%s", run.name, firstDiff(want, got))
		}
	}
}

// TestCampaignGoldenPaperManualYear pins a whole manual year on the
// paper site (seed 7, one trial, 365 days) through the pooled Reset path
// — the production campaign runner — against the checked-in golden
// (testdata/campaign-golden-paper-manual-year.json). The one-day goldens
// end before most fault injection and operator repair; this one runs a
// year of both. Regenerate (go run ./scripts/campaigngolden) only for a
// change that is *supposed* to move the manual-year numbers.
func TestCampaignGoldenPaperManualYear(t *testing.T) {
	if testing.Short() {
		t.Skip("a 365-day paper-site trial; run without -short for the full gate")
	}
	t.Parallel()
	want, err := os.ReadFile(filepath.Join("..", "testdata", "campaign-golden-paper-manual-year.json"))
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	m := campaign.Matrix{
		Seeds:     campaign.Seeds(7, 1),
		Scenarios: []string{"year"},
		Sites:     []string{"paper"},
		Modes:     []string{"manual"},
		Days:      365,
	}
	res, err := campaign.Run("golden", m, 1, NewPooledRunFunc())
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	got = append(got, '\n')
	if !bytes.Equal(want, got) {
		t.Errorf("pooled path diverged from the manual-year golden:\n%s", firstDiff(want, got))
	}
}

// TestCampaignGoldenSmallAgentsYear pins a whole agents year on the small
// site (seed 7, one trial, 365 days) through the pooled Reset path against
// the checked-in golden (testdata/campaign-golden-small-agents-year.json),
// and the same trial's level-1 decision trace by its FNV-64a digest. The
// one-day agents goldens end before the first fault; this year holds the
// agents' whole fault path: detection, diagnosis, healing, escalation and
// the ledger. The campaign JSON holds only the sums, so the trace digest
// pins the decisions themselves: every arrival, fault, detect, diagnose,
// heal, resolve, page and dispatch event, in order. Tracing draws no
// randomness and schedules nothing, so one traced run serves both checks.
// Regenerate the golden (go run ./scripts/campaigngolden), and re-record
// the digest from this test's message, only for a change that is
// *supposed* to move the agents year.
func TestCampaignGoldenSmallAgentsYear(t *testing.T) {
	if testing.Short() {
		t.Skip("a 365-day agents-mode trial; run without -short for the full gate")
	}
	t.Parallel()
	want, err := os.ReadFile(filepath.Join("..", "testdata", "campaign-golden-small-agents-year.json"))
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	m := campaign.Matrix{
		Seeds:     campaign.Seeds(7, 1),
		Scenarios: []string{"year"},
		Sites:     []string{"small"},
		Modes:     []string{"agents"},
		Days:      365,
	}
	res, tr, err := RunTracedCampaign("golden", m, Exec{Workers: 1, TraceLevel: trace.LevelDecisions})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	got = append(got, '\n')
	if !bytes.Equal(want, got) {
		t.Errorf("pooled path diverged from the agents-year golden:\n%s", firstDiff(want, got))
	}
	h := fnv.New64a()
	h.Write(tr)
	const wantTrace = 0x107bd8627a0def71
	if sum := h.Sum64(); sum != wantTrace {
		t.Errorf("trace digest = %#x over %d bytes, want %#x: the agents year's decisions moved",
			sum, len(tr), uint64(wantTrace))
	}
}

// TestWebfarmTierSpecDivergence proves the canned webfarm per-tier specs
// change where faults land and what the workload offers — the tiers
// genuinely diverge rather than relabelling the same site. It runs the
// shipped webfarm against a stripped copy (identical tiers, specs
// removed) on the same seed and asserts the per-tier incident
// distribution differs, the tiered report carries per-tier rows, and the
// campaign metrics expose them.
func TestWebfarmTierSpecDivergence(t *testing.T) {
	t.Parallel()
	const span = 60 * simclock.Day
	const seed = 11

	specced := qoscluster.WebFarmTopology()
	stripped := qoscluster.WebFarmTopology()
	stripped.Name = "webfarm-stripped"
	for i := range stripped.Tiers {
		stripped.Tiers[i].Workload = nil
		stripped.Tiers[i].Faults = nil
	}

	// tierIncidents maps the run's ledger onto topology tiers by host so
	// the stripped site (whose report has no Tiers rows) is measured with
	// the same ruler as the specced one.
	tierIncidents := func(site *qoscluster.Site) map[string]int {
		out := map[string]int{}
		for _, inc := range site.Ledger.Incidents() {
			out[hostTier(site.Topo, inc.Host)]++
		}
		return out
	}

	run := func(topo qoscluster.Topology) *qoscluster.Site {
		t.Helper()
		site, err := qoscluster.NewSite(topo, qoscluster.WithSeed(seed), qoscluster.WithMode(qoscluster.ModeAgents))
		if err != nil {
			t.Fatal(err)
		}
		if err := site.Run(span); err != nil {
			t.Fatal(err)
		}
		return site
	}
	withSpecs := run(specced)
	without := run(stripped)

	if !withSpecs.Tiered() {
		t.Fatal("shipped webfarm is not tiered; its per-tier specs are gone")
	}
	if without.Tiered() {
		t.Fatal("stripped webfarm still reports tiered")
	}
	r := withSpecs.Report()
	if len(r.Tiers) != 3 {
		t.Fatalf("tiered report has %d tier rows, want 3", len(r.Tiers))
	}
	if got := without.Report().Tiers; len(got) != 0 {
		t.Fatalf("untiered report has %d tier rows, want none", len(got))
	}

	a, b := tierIncidents(withSpecs), tierIncidents(without)
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Errorf("per-tier incident distribution identical with and without specs: %v", a)
	}
	var total int
	for _, n := range a {
		total += n
	}
	if total == 0 {
		t.Fatal("specced webfarm saw no incidents over 60 days; the divergence check is vacuous")
	}

	// The campaign metric surface exposes the breakdown for tiered sites.
	vals := yearMetrics(r, span)
	for _, tier := range []string{"db", "web", "fe"} {
		if _, ok := vals["incidents_tier/"+tier]; !ok {
			t.Errorf("yearMetrics missing incidents_tier/%s for the tiered site", tier)
		}
		if _, ok := vals["downtime_h_tier/"+tier]; !ok {
			t.Errorf("yearMetrics missing downtime_h_tier/%s for the tiered site", tier)
		}
	}
	if _, ok := yearMetrics(without.Report(), span)["incidents_tier/db"]; ok {
		t.Error("yearMetrics emitted tier rows for an untiered site; the golden gate would break")
	}
}
