package graph

import (
	"slices"
	"sort"
	"testing"

	"ingrass/internal/vecmath"
)

// TestSellOrderMatchesStableSort pins sellOrder's row permutation to the
// one it had before it became a typed sort: within each σ-window, row ids
// stably sorted by descending row length. Sparse random graphs give many
// rows of equal length, so nearly every comparison is a tie.
func TestSellOrderMatchesStableSort(t *testing.T) {
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(300)
		c := NewCSR(randomGraphFromSeed(uint64(trial), n, r.Intn(2*n)))
		sigma := []int{1, 3, SellC, 32, DefaultSellSigma}[r.Intn(5)]
		rl := func(u int) int { return c.RowPtr[u+1] - c.RowPtr[u] }
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		for w0 := 0; w0 < n; w0 += sigma {
			win := want[w0:min(w0+sigma, n)]
			sort.SliceStable(win, func(a, b int) bool { return rl(win[a]) > rl(win[b]) })
		}
		if got, _, _ := sellOrder(c, sigma); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, sigma=%d): order %v, stable sort %v", trial, n, sigma, got, want)
		}
	}
}
