package campaign

import "math"

// The significance layer: campaigns replicate every cell over the same
// seed list, so two cells of one campaign form either a paired sample
// (both cells completed every seed — compare per-seed differences) or,
// when errors broke the pairing, independent samples compared with
// Welch's unequal-variance t-test. TTest picks the right one and returns
// a two-sided p-value computed from the Student-t distribution via the
// regularised incomplete beta function — no tables, any df.

// TTest compares two metric sample vectors and returns the two-sided
// p-value. When paired is true, xs and ys must be aligned (sample i of
// each from the same seed) and equal length; the test is then the paired
// t-test on differences. Otherwise Welch's t-test. Returns ok=false when a
// test cannot be computed (fewer than two samples a side, or zero
// variance with distinct means).
func TTest(xs, ys []float64, paired bool) (p float64, ok bool) {
	if paired {
		return pairedT(xs, ys)
	}
	return welchT(xs, ys)
}

func meanVar(xs []float64) (mean, variance float64) {
	n := float64(len(xs))
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / (n - 1)
}

func welchT(xs, ys []float64) (float64, bool) {
	if len(xs) < 2 || len(ys) < 2 {
		return 0, false
	}
	mx, vx := meanVar(xs)
	my, vy := meanVar(ys)
	nx, ny := float64(len(xs)), float64(len(ys))
	se2 := vx/nx + vy/ny
	if se2 <= 0 {
		// Zero variance on both sides: identical means are simply "not
		// significant". Distinct constant means have no finite t — and no
		// finite sample justifies p = 0 — so report "not computable"
		// rather than overstate a two-seed quantized difference.
		if mx != my {
			return 0, false
		}
		return 1, true
	}
	t := (my - mx) / math.Sqrt(se2)
	// Welch–Satterthwaite effective degrees of freedom.
	df := se2 * se2 / (vx*vx/(nx*nx*(nx-1)) + vy*vy/(ny*ny*(ny-1)))
	return StudentP(t, df), true
}

func pairedT(xs, ys []float64) (float64, bool) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, false
	}
	ds := make([]float64, len(xs))
	for i := range xs {
		ds[i] = ys[i] - xs[i]
	}
	md, vd := meanVar(ds)
	n := float64(len(ds))
	df := n - 1
	if vd <= 0 {
		// As in welchT: a constant non-zero difference has no finite t;
		// "-" beats a fake p = 0.
		if md != 0 {
			return 0, false
		}
		return 1, true
	}
	t := md / math.Sqrt(vd/n)
	return StudentP(t, df), true
}

// StudentP returns the two-sided p-value of a Student-t statistic with
// df degrees of freedom: P(|T| >= |t|) = I_{df/(df+t²)}(df/2, 1/2).
func StudentP(t, df float64) float64 {
	if df <= 0 || math.IsNaN(t) {
		return math.NaN()
	}
	if math.IsInf(t, 0) {
		return 0
	}
	return regIncBeta(df/2, 0.5, df/(df+t*t))
}

// regIncBeta computes the regularised incomplete beta function I_x(a, b)
// by the standard continued-fraction expansion (Lentz's method), using
// the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to keep the fraction in its
// rapidly converging region.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the incomplete-beta continued fraction (Numerical
// Recipes' modified Lentz algorithm).
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		mf := float64(m)
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// GroupSamples returns, parallel to r.Groups, each group's per-metric
// sample vectors in trial (seed) order — the raw material for the paired
// significance tests between cells. Failed trials contribute nothing, as
// in Aggregate.
func (r *Result) GroupSamples() []map[string][]float64 {
	idx := make(map[Cell]int, len(r.Groups))
	out := make([]map[string][]float64, len(r.Groups))
	for i, g := range r.Groups {
		idx[g.Cell] = i
		out[i] = make(map[string][]float64)
	}
	for _, tr := range r.Trials {
		if tr.Err != "" {
			continue
		}
		i, ok := idx[tr.Trial.Cell]
		if !ok {
			continue
		}
		for name, v := range tr.Metrics {
			out[i][name] = append(out[i][name], v)
		}
	}
	return out
}
