package lrd

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"

	"ingrass/internal/vecmath"
)

// edgeResist is an edge of a level with its estimated resistance.
type edgeResist struct {
	r    float64
	edge int
}

// byResist is the reference comparator for Build's per-level edge order:
// resistance, lowest first, then edge index.
func byResist(a, b edgeResist) int {
	switch {
	case a.r < b.r:
		return -1
	case a.r > b.r:
		return 1
	}
	return cmp.Compare(a.edge, b.edge)
}

// TestResistOrderMatchesStableSort pins Build's per-level edge order,
// vecmath.Order over the resistances, ascending, to the edge indices stably
// sorted by ascending resistance and to the byResist comparator sort.
// Values come from a small pool so ties are common, with both infinities
// and both zeros in it.
func TestResistOrderMatchesStableSort(t *testing.T) {
	pool := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 0.5, 1, 2, -3}
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		resist := make([]float64, r.Intn(200))
		order := make([]edgeResist, len(resist))
		want := make([]int, len(resist))
		for i := range resist {
			resist[i] = pool[r.Intn(len(pool))]
			order[i] = edgeResist{r: resist[i], edge: i}
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return resist[want[a]] < resist[want[b]] })
		slices.SortFunc(order, byResist)
		got := vecmath.Order(resist, false)
		for i := range want {
			if order[i].edge != want[i] || int(got[i]) != want[i] {
				t.Fatalf("trial %d: position %d holds edge %d (comparator %d), stable sort put %d there",
					trial, i, got[i], order[i].edge, want[i])
			}
		}
	}
}
