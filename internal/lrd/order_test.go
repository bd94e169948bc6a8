package lrd

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ingrass/internal/vecmath"
)

// TestResistOrderMatchesStableSort pins byResist to the per-level edge
// order Build had before it became a typed sort: edge indices stably sorted
// by ascending resistance. Values come from a small pool so ties are
// common, with both infinities and both zeros in it.
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
		for i := range want {
			if order[i].edge != want[i] {
				t.Fatalf("trial %d: position %d holds edge %d, stable sort put %d there", trial, i, order[i].edge, want[i])
			}
		}
	}
}
