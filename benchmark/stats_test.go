package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestPercentileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64() * 5) // rounding makes ties
		}
		sorted := slices.Sorted(slices.Values(xs))
		for _, p := range []float64{0.5, 1, 10, 25, 50, 75, 90, 99, 100} {
			// The nearest rank: the smallest sample with at least p% of the
			// samples at or below it.
			var want float64
			for _, v := range sorted {
				atOrBelow := 0
				for _, x := range xs {
					if x <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p/100*float64(len(xs)) {
					want = v
					break
				}
			}
			if got := percentile(xs, p); got != want {
				t.Fatalf("percentile(%v, %g) = %g, want %g", xs, p, got, want)
			}
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) spreads.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1},
		{[]float64{1, 2, 4, 8}, (7 - 1.25) / 3.0},
		{[]float64{3, 1, 2}, 1},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	// Python's statistics.median averages the middle two of an even count.
	if _, q2, _ := quartiles([]float64{4, 1, 3, 2}); q2 != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", q2)
	}
}
