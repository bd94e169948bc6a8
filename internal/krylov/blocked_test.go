package krylov

import (
	"math"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/kernel"
	"ingrass/internal/vecmath"
)

// randomBasis returns m random vectors of length n (not orthonormalized:
// the blocked loops must match their references on any input).
func randomBasis(r *vecmath.RNG, m, n int) [][]float64 {
	basis := make([][]float64, m)
	for j := range basis {
		basis[j] = make([]float64, n)
		r.FillNormal(basis[j])
	}
	return basis
}

// TestRayleighRitzMatchesColumnProducts: rayleighRitz equals, bit for bit,
// one LapMul per basis vector followed by vecmath.Dot per entry, serially
// and through a two-worker pool (the 64x81 grid is over the pool's fork
// cutover), for lengths on and off the block and lane boundaries and for
// more vectors than one multi-vector product takes.
func TestRayleighRitzMatchesColumnProducts(t *testing.T) {
	r := vecmath.NewRNG(1)
	for _, rc := range [][2]int{{1, 2}, {3, 5}, {16, 32}, {23, 45}, {64, 81}} {
		g := gridGraph(rc[0], rc[1])
		csr := graph.NewCSR(g)
		n := g.NumNodes()
		for _, m := range []int{1, 5, graph.MaxMulti + 3, 32} {
			basis := randomBasis(r, m, n)
			want := vecmath.NewDense(m, m)
			lq := make([]float64, n)
			for j := range basis {
				csr.LapMul(lq, basis[j])
				for i := 0; i <= j; i++ {
					v := vecmath.Dot(basis[i], lq)
					want.Set(i, j, v)
					want.Set(j, i, v)
				}
			}
			for _, workers := range []int{1, 2} {
				kern := kernel.Shared(workers)
				var part []int
				if kern != nil {
					part = csr.NNZPartition(kern.Workers())
				}
				got := rayleighRitz(kern, csr, part, basis)
				for k, w := range want.Data {
					if math.Float64bits(got.Data[k]) != math.Float64bits(w) {
						t.Fatalf("n=%d m=%d workers=%d: T[%d] = %v, column products give %v",
							n, m, workers, k, got.Data[k], w)
					}
				}
			}
		}
	}
}

// TestCoordTableMatchesColumnOrder: coordTable equals, bit for bit, the
// column-at-a-time accumulation over whole vectors, including skipped
// null-space columns and zero eigenvector entries.
func TestCoordTableMatchesColumnOrder(t *testing.T) {
	r := vecmath.NewRNG(2)
	for _, n := range []int{1, 7, chunk, chunk + 1, 3*chunk - 5} {
		for _, m := range []int{1, 4, 19} {
			basis := randomBasis(r, m, n)
			theta := make([]float64, m)
			y := vecmath.NewDense(m, m)
			for i := range theta {
				theta[i] = r.Range(0, 4)
				for j := 0; j < m; j++ {
					if r.Intn(4) > 0 {
						y.Set(j, i, r.Range(-1, 1))
					}
				}
			}
			theta[0] = 1e-13 // a null-space remnant
			want := make([]float64, n*m)
			for i, th := range theta {
				if th <= 1e-12 {
					continue
				}
				scale := 1 / math.Sqrt(th)
				col := make([]float64, n)
				for j := 0; j < m; j++ {
					yji := y.At(j, i)
					if yji == 0 {
						continue
					}
					c := yji * scale
					for v, q := range basis[j] {
						col[v] += float64(c * q)
					}
				}
				for v, x := range col {
					want[v*m+i] = x
				}
			}
			got := coordTable(basis, theta, y)
			for k, w := range want {
				if math.Float64bits(got[k]) != math.Float64bits(w) {
					t.Fatalf("n=%d m=%d: coords[%d] = %v, column order gives %v", n, m, k, got[k], w)
				}
			}
		}
	}
}

// BenchmarkNewEmbeddingMesh times one serial Krylov embedding of the GRASS
// sparsifier (density 0.10) of a 65,536-node Delaunay mesh: the level-1
// embedding of the LRD setup on the stream-mesh graph's size.
func BenchmarkNewEmbeddingMesh(b *testing.B) {
	g, err := gen.Delaunay(1<<16, 1)
	if err != nil {
		b.Fatal(err)
	}
	init, err := grass.InitialSparsifier(g, 0.10, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Seed: 1, Workers: 1}
	b.ResetTimer()
	for range b.N {
		if _, err := NewEmbedding(init.H, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
