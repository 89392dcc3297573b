package campaign_test

import (
	"encoding/json"
	"reflect"
	"testing"

	qoscluster "repro"
	"repro/internal/campaign"
)

// TestDecodedResultKeepsGroupSamples: a campaign record decoded from its
// own JSON pairs trials with groups exactly as the in-memory result does,
// so the significance tests run on a decoded record see the same samples
// and FormatCampaign renders it the same.
func TestDecodedResultKeepsGroupSamples(t *testing.T) {
	m := campaign.Matrix{
		Seeds:      campaign.Seeds(1, 3),
		Scenarios:  []string{"year"},
		TierFaults: []string{"", "db=2"},
	}
	fn := func(tr campaign.Trial) (map[string]float64, error) {
		v := float64(tr.Seed)
		if tr.TierFaults != "" {
			v *= 2
		}
		return map[string]float64{"m": v}, nil
	}
	res, err := campaign.Run("decode", m, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back campaign.Result
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	want := []map[string][]float64{{"m": {1, 2, 3}}, {"m": {2, 4, 6}}}
	if got := res.GroupSamples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("in-memory GroupSamples = %v, want %v", got, want)
	}
	if got := back.GroupSamples(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded GroupSamples = %v, want %v", got, want)
	}
	if got, want := qoscluster.FormatCampaign(&back), qoscluster.FormatCampaign(res); got != want {
		t.Errorf("decoded record renders differently:\n got:\n%s\nwant:\n%s", got, want)
	}
}
