// Command campaigngolden regenerates the checked-in campaign-JSON golden
// files (testdata/campaign-golden-<site>-<mode>.json) that
// TestCampaignGoldenNoTierSpecs compares against, plus the flash-crowd
// workload golden (testdata/campaign-golden-small-flashcrowd.json) that
// TestCampaignGoldenFlashcrowd compares against, plus the year-long
// manual golden (testdata/campaign-golden-paper-manual-year.json) that
// TestCampaignGoldenPaperManualYear compares against. The no-spec goldens
// pin the campaign output of topologies *without* per-tier
// workload/fault specs or a named workload — so driven by the
// generator's default `paper` spec — and refactors of the workload
// generator or fault campaign cannot drift the reproduced numbers for
// unspecified topologies; the flash-crowd golden pins the statistical
// arrival engine over the checked-in testdata/workload-flashcrowd.json
// spec; the year golden is the one run long enough to pin a whole year
// of fault injection and operator repair.
//
// Only regenerate deliberately — after a change that is *supposed* to
// move the default numbers — and say so in the commit message:
//
//	go run ./scripts/campaigngolden
package main

import (
	"fmt"
	"os"

	"repro/experiments"
	"repro/internal/campaign"
)

func main() {
	for _, site := range []string{"paper", "small"} {
		for _, mode := range []string{"manual", "agents"} {
			write(site+"-"+mode, campaign.Matrix{
				Seeds:     campaign.Seeds(7, 2),
				Scenarios: []string{"year"},
				Sites:     []string{site},
				Modes:     []string{mode},
				Days:      1,
			})
		}
	}

	// The flash-crowd workload golden: the checked-in spec file driving
	// the statistical arrival engine on the small site.
	wls, err := experiments.ResolveWorkloads([]string{"testdata/workload-flashcrowd.json"})
	if err != nil {
		fatal(err)
	}
	write("small-flashcrowd", campaign.Matrix{
		Seeds:     campaign.Seeds(7, 2),
		Scenarios: []string{"year"},
		Sites:     []string{"small"},
		Modes:     []string{"manual"},
		Days:      1,
		Workloads: wls,
	})

	// The year-long manual golden: one paper-site trial over 365 days.
	write("paper-manual-year", campaign.Matrix{
		Seeds:     campaign.Seeds(7, 1),
		Scenarios: []string{"year"},
		Sites:     []string{"paper"},
		Modes:     []string{"manual"},
		Days:      365,
	})
}

// write runs m serially and writes its campaign JSON to
// testdata/campaign-golden-<name>.json.
func write(name string, m campaign.Matrix) {
	res, err := campaign.Run("golden", m, 1, experiments.RunTrial)
	if err != nil {
		fatal(err)
	}
	if errs := res.Errs(); len(errs) > 0 {
		fatal(fmt.Errorf("%s: %d failed trials; first: %s", name, len(errs), errs[0].Err))
	}
	js, err := res.JSON()
	if err != nil {
		fatal(err)
	}
	path := "testdata/campaign-golden-" + name + ".json"
	if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(js)+1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaigngolden:", err)
	os.Exit(1)
}
