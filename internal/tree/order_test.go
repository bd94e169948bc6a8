package tree

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// TestHeaviestFirstOrderMatchesStableSort pins heaviestFirst to the Kruskal
// order MaxWeight had before it became a typed sort: edge indices stably
// sorted by descending weight. Weights come from a small pool so ties are
// common, with both infinities and both zeros in it.
func TestHeaviestFirstOrderMatchesStableSort(t *testing.T) {
	pool := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 0.5, 1, 2, -3}
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		edges := make([]graph.Edge, r.Intn(200))
		want := make([]int32, len(edges))
		for i := range edges {
			edges[i] = graph.Edge{U: i, V: i + 1, W: pool[r.Intn(len(pool))]}
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return edges[want[a]].W > edges[want[b]].W })
		if got := heaviestFirst(edges); !slices.Equal(got, want) {
			t.Fatalf("trial %d: order %v, stable sort %v", trial, got, want)
		}
	}
}
