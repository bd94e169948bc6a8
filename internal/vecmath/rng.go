package vecmath

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). Every stochastic component in the repository (Krylov
// start vectors, dataset generators, random baselines) draws from an RNG
// seeded explicitly, so experiments are reproducible run to run.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given value using the
// SplitMix64 expansion, which guarantees a well-mixed non-zero state for
// any seed, including 0.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform draw from [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw from {0, 1, ..., n-1}. It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vecmath: RNG.Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform draw from [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// NormFloat64 returns a standard normal draw using the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	// Reject u1 == 0 to keep the logarithm finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillRademacher fills v with independent +1/-1 entries, the standard choice
// for Hutchinson-style sketches and Krylov start vectors.
func (r *RNG) FillRademacher(v []float64) {
	for i := range v {
		if r.Uint64()&1 == 0 {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
}

// FillNormal fills v with independent standard normal entries.
func (r *RNG) FillNormal(v []float64) {
	for i := range v {
		v[i] = r.NormFloat64()
	}
}

// Perm returns a uniformly random permutation of {0, ..., n-1}
// (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices in place via the provided swap
// function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
