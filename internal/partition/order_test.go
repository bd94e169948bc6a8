package partition

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ingrass/internal/vecmath"
)

// TestScoreOrderMatchesStableSort pins byScore to the ranking SplitByVector
// had before it became a typed sort: node ids stably sorted by ascending
// score. Scores come from a small pool so ties are common, with both
// infinities and both zeros in it.
func TestScoreOrderMatchesStableSort(t *testing.T) {
	pool := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 0.5, 1, 2, -3}
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		score := make([]float64, r.Intn(200))
		want := make([]int, len(score))
		for i := range score {
			score[i] = pool[r.Intn(len(pool))]
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return score[want[a]] < score[want[b]] })
		if got := byScore(score); !slices.Equal(got, want) {
			t.Fatalf("trial %d: order %v, stable sort %v", trial, got, want)
		}
	}
}
