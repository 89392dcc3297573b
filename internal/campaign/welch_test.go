package campaign

import (
	"math"
	"testing"
)

// Reference values computed with scipy.stats (ttest_rel / ttest_ind with
// equal_var=False) to 4+ significant figures.
func TestTTestKnownValues(t *testing.T) {
	t.Run("paired", func(t *testing.T) {
		// diffs {1,2,3}: t = 2/(1/√3) = 3.4641, df 2, p = 0.07418.
		p, ok := TTest([]float64{1, 2, 3}, []float64{2, 4, 6}, true)
		if !ok {
			t.Fatal("paired test not computed")
		}
		if math.Abs(p-0.074180) > 1e-4 {
			t.Errorf("paired p=%v, want p=0.07418", p)
		}
	})
	t.Run("welch", func(t *testing.T) {
		// {1,2,3,4} vs {5,6,7,9}: Δmean 4.25, s²/n = 5/12 + 35/48,
		// t = 3.97034, Welch–Satterthwaite df = 5.58462, p = 0.0085129
		// (sign: second minus first).
		p, ok := TTest([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 9}, false)
		if !ok {
			t.Fatal("welch test not computed")
		}
		if math.Abs(p-0.0085129) > 1e-5 {
			t.Errorf("welch p = %v, want 0.0085129", p)
		}
	})
	t.Run("identical samples", func(t *testing.T) {
		p, ok := TTest([]float64{5, 5, 5}, []float64{5, 5, 5}, true)
		if !ok || p != 1 {
			t.Errorf("identical constant samples: p = %v ok=%v, want 1", p, ok)
		}
	})
	t.Run("constant distinct samples", func(t *testing.T) {
		// No finite sample justifies p = 0; the degenerate case renders
		// as "not computable" instead of overstating significance.
		if _, ok := TTest([]float64{1, 1, 1}, []float64{2, 2, 2}, false); ok {
			t.Error("distinct constant samples should not be testable")
		}
		if _, ok := TTest([]float64{1, 1, 1}, []float64{2, 2, 2}, true); ok {
			t.Error("distinct constant paired samples should not be testable")
		}
	})
	t.Run("too few samples", func(t *testing.T) {
		if _, ok := TTest([]float64{1}, []float64{2}, false); ok {
			t.Error("singleton samples should not be testable")
		}
		if _, ok := TTest([]float64{1, 2}, []float64{2, 3, 4}, true); ok {
			t.Error("unequal lengths should not pair")
		}
	})
}

func TestStudentPSymmetryAndRange(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 10, 30, 120} {
		for _, tv := range []float64{0, 0.5, 1, 2, 5} {
			p := StudentP(tv, df)
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("StudentP(%v, %v) = %v out of [0,1]", tv, df, p)
			}
			if got := StudentP(-tv, df); math.Abs(got-p) > 1e-12 {
				t.Fatalf("two-sided p not symmetric: %v vs %v", got, p)
			}
		}
		if p := StudentP(0, df); p != 1 {
			t.Errorf("StudentP(0, %v) = %v, want 1", df, p)
		}
	}
	// Large df approaches the normal distribution: |t|=1.96 → p ≈ 0.05.
	if p := StudentP(1.96, 1e6); math.Abs(p-0.05) > 1e-3 {
		t.Errorf("StudentP(1.96, 1e6) = %v, want ≈0.05", p)
	}
}

// TestTierFaultsAxis pins the new matrix axis: cells differing only in
// TierFaults enumerate, group and label separately, and GroupSamples
// aligns samples per cell in seed order.
func TestTierFaultsAxis(t *testing.T) {
	m := Matrix{
		Seeds:      Seeds(1, 3),
		Scenarios:  []string{"year"},
		Sites:      []string{"small"},
		TierFaults: []string{"", "db=2"},
	}
	trials := m.Trials()
	if len(trials) != 6 {
		t.Fatalf("expected 6 trials, got %d", len(trials))
	}
	fn := func(tr Trial) (map[string]float64, error) {
		v := float64(tr.Seed)
		if tr.TierFaults != "" {
			v *= 10
		}
		return map[string]float64{"downtime_h/total": v}, nil
	}
	res, err := Run("tierfaults", m, 2, fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("expected 2 groups, got %d", len(res.Groups))
	}
	if res.Groups[0].TierFaults != "" || res.Groups[1].TierFaults != "db=2" {
		t.Errorf("group coordinates wrong: %+v", res.Groups)
	}
	samples := res.GroupSamples()
	want0, want1 := []float64{1, 2, 3}, []float64{10, 20, 30}
	for i, want := range [][]float64{want0, want1} {
		got := samples[i]["downtime_h/total"]
		if len(got) != len(want) {
			t.Fatalf("group %d samples = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("group %d samples = %v, want %v (seed order)", i, got, want)
			}
		}
	}
}
