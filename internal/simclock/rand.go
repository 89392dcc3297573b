package simclock

import "math"

// Rand is a small deterministic random source (splitmix64 core) owned by a
// Sim. It deliberately avoids math/rand global state so that simulations
// replay exactly from their seed regardless of what else the process does.
type Rand struct {
	state uint64
}

// NewRand returns a source seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Reseed rewinds the source to the state NewRand(seed) would give it, so a
// reused simulation replays the same stream a fresh one would.
func (r *Rand) Reseed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("simclock: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard-normal sample (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, the inter-arrival law of a Poisson process.
func (r *Rand) ExpDuration(mean Time) Time {
	if mean <= 0 {
		panic("simclock: ExpDuration with non-positive mean")
	}
	u := r.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	d := -math.Log(u) * float64(mean)
	if d > float64(math.MaxInt64)/2 {
		d = float64(math.MaxInt64) / 2
	}
	return Time(d)
}

// UniformDuration returns a uniform duration in [lo, hi].
func (r *Rand) UniformDuration(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.Uint64()%uint64(hi-lo+1))
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f].
func (r *Rand) Jitter(d Time, f float64) Time {
	return Time(float64(d) * r.Jitterf(f))
}

// Jitterf returns a multiplicative factor uniform in [1-f, 1+f].
func (r *Rand) Jitterf(f float64) float64 {
	return 1 + f*(2*r.Float64()-1)
}

// Pick returns a uniformly chosen index weighted by w; w must contain at
// least one positive weight.
func (r *Rand) Pick(w []float64) int {
	var total float64
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		panic("simclock: Pick with no positive weights")
	}
	t := r.Float64() * total
	for i, x := range w {
		if x <= 0 {
			continue
		}
		t -= x
		if t < 0 {
			return i
		}
	}
	// Float roundoff can leave t at exactly zero after the last positive
	// weight; land on that weight, never on a zero-weight trailer.
	for i := len(w) - 1; i > 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return 0
}

// Fork derives an independent stream labelled by id, for giving subsystems
// their own streams so adding draws in one never perturbs another.
func (r *Rand) Fork(id uint64) *Rand {
	return NewRand(r.Uint64() ^ (id * 0xd6e8feb86659fd93))
}
