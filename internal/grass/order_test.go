package grass

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ingrass/internal/vecmath"
)

// TestCandOrderMatchesStableSort pins byDistortion to the order the
// candidate ranking had before it became a typed sort: a stable sort by
// descending distortion over candidates listed in ascending edge order.
// Values come from a small pool so ties are common, with both infinities
// and both zeros in it.
func TestCandOrderMatchesStableSort(t *testing.T) {
	pool := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 0.5, 1, 2, -3}
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		cands := make([]cand, r.Intn(200))
		edge := 0
		for i := range cands {
			edge += 1 + r.Intn(3)
			cands[i] = cand{edge: edge, distortion: pool[r.Intn(len(pool))]}
		}
		want := slices.Clone(cands)
		sort.SliceStable(want, func(a, b int) bool { return want[a].distortion > want[b].distortion })
		slices.SortFunc(cands, byDistortion)
		for i := range want {
			if cands[i].edge != want[i].edge {
				t.Fatalf("trial %d: position %d holds edge %d, stable sort put %d there", trial, i, cands[i].edge, want[i].edge)
			}
		}
	}
}
