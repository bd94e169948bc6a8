package grass

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"

	"ingrass/internal/vecmath"
)

// byDistortion is the reference comparator for Sparsify's candidate
// ranking: distortion, highest first, then edge index.
func byDistortion(a, b cand) int {
	switch {
	case a.distortion > b.distortion:
		return -1
	case a.distortion < b.distortion:
		return 1
	}
	return cmp.Compare(a.edge, b.edge)
}

// TestCandOrderMatchesStableSort pins Sparsify's candidate ranking,
// vecmath.Order over the distortions of candidates listed in ascending edge
// order, descending, to a stable sort by descending distortion and to the
// byDistortion comparator sort. Values come from a small pool so ties are
// common, with both infinities and both zeros in it.
func TestCandOrderMatchesStableSort(t *testing.T) {
	pool := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 0.5, 1, 2, -3}
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		cands := make([]cand, r.Intn(200))
		dist := make([]float64, len(cands))
		edge := 0
		for i := range cands {
			edge += 1 + r.Intn(3)
			dist[i] = pool[r.Intn(len(pool))]
			cands[i] = cand{edge: edge, distortion: dist[i]}
		}
		got := vecmath.Order(dist, true)
		want := slices.Clone(cands)
		sort.SliceStable(want, func(a, b int) bool { return want[a].distortion > want[b].distortion })
		sorted := slices.Clone(cands)
		slices.SortFunc(sorted, byDistortion)
		for i := range want {
			if sorted[i].edge != want[i].edge || cands[got[i]].edge != want[i].edge {
				t.Fatalf("trial %d: position %d holds edge %d (comparator %d), stable sort put %d there",
					trial, i, cands[got[i]].edge, sorted[i].edge, want[i].edge)
			}
		}
	}
}
