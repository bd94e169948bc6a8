package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"

	"ingrass/internal/vecmath"
)

// scored is a new edge's distortion estimate and batch position.
type scored struct {
	d   float64
	pos int
}

// byDistortion is the reference comparator for UpdateBatch's processing
// order: distortion, highest first, then batch position.
func byDistortion(a, b scored) int {
	switch {
	case a.d > b.d:
		return -1
	case a.d < b.d:
		return 1
	}
	return cmp.Compare(a.pos, b.pos)
}

// TestScoredOrderMatchesStableSort pins UpdateBatch's processing order,
// vecmath.Order over the distortions, descending, to the batch stably
// sorted by descending distortion and to the byDistortion comparator sort.
// Values are drawn from a small pool so ties are common, with both
// infinities and both zeros in it.
func TestScoredOrderMatchesStableSort(t *testing.T) {
	pool := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 0.5, 1, 2, -3}
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		dist := make([]float64, r.Intn(200))
		work := make([]scored, len(dist))
		for i := range dist {
			dist[i] = pool[r.Intn(len(pool))]
			work[i] = scored{d: dist[i], pos: i}
		}
		want := slices.Clone(work)
		sort.SliceStable(want, func(a, b int) bool { return want[a].d > want[b].d })
		slices.SortFunc(work, byDistortion)
		got := vecmath.Order(dist, true)
		for i := range want {
			if work[i].pos != want[i].pos || int(got[i]) != want[i].pos {
				t.Fatalf("trial %d: position %d holds batch edge %d (comparator %d), stable sort put %d there",
					trial, i, got[i], work[i].pos, want[i].pos)
			}
		}
	}
}
