package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// is exact over the raw samples, unlike the bucketed obs histograms, whose
// quantiles carry up to 12.5% error. xs is not modified; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, interpolated as Python's statistics.quantiles(xs, n=4) does (its
// default "exclusive" method), so the medians and spreads -compare prints
// match ones computed from the same values in Python.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		j := max(1, min(i*(ld+1)/4, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median.
func quartileSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 || math.IsNaN(q2) {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
