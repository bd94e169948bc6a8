package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// TestScoredOrderMatchesStableSort pins byDistortion to the processing
// order UpdateBatch had before it became a typed sort: the batch stably
// sorted by descending distortion. Values are drawn from a small pool so
// ties are common, with both infinities and both zeros in it.
func TestScoredOrderMatchesStableSort(t *testing.T) {
	pool := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 0.5, 1, 2, -3}
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		work := make([]scored, r.Intn(200))
		for i := range work {
			work[i] = scored{e: graph.Edge{U: i, V: i + 1, W: 1}, d: pool[r.Intn(len(pool))], pos: i}
		}
		want := slices.Clone(work)
		sort.SliceStable(want, func(a, b int) bool { return want[a].d > want[b].d })
		slices.SortFunc(work, byDistortion)
		for i := range want {
			if work[i].pos != want[i].pos {
				t.Fatalf("trial %d: position %d holds batch edge %d, stable sort put %d there", trial, i, work[i].pos, want[i].pos)
			}
		}
	}
}
