package kernel

import (
	"fmt"
	"math"
	"testing"

	"ingrass/internal/graph"
)

// multiBlock builds a deterministic block of w columns of length n.
func multiBlock(n, w int, seed float64) [][]float64 {
	blk := make([][]float64, w)
	for j := range blk {
		blk[j] = make([]float64, n)
		for i := range blk[j] {
			blk[j][i] = math.Sin(seed + float64(i*(j+2)))
		}
	}
	return blk
}

func cloneBlock(blk [][]float64) [][]float64 {
	out := make([][]float64, len(blk))
	for j := range blk {
		out[j] = append([]float64(nil), blk[j]...)
	}
	return out
}

func requireBitsEqual(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	for j := range want {
		for i := range want[j] {
			if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
				t.Fatalf("%s: column %d entry %d: %g != %g", name, j, i, got[j][i], want[j][i])
			}
		}
	}
}

// TestLapMulMultiMatchesLapMul: the serial multi-vector SpMV must be
// bit-identical, column for column, to independent LapMul products — over
// widths, graph shapes (grid and star for nnz skew), and including width 1.
func TestLapMulMultiMatchesLapMul(t *testing.T) {
	star := graph.New(101, 100)
	for i := 1; i <= 100; i++ {
		star.AddEdge(0, i, float64(i))
	}
	for name, g := range map[string]*graph.Graph{"grid": testGrid(40, 40), "star": star} {
		csr := graph.NewCSR(g)
		for _, w := range []int{1, 2, 3, 7, graph.MaxMulti} {
			x := multiBlock(csr.N, w, 1.5)
			dst := multiBlock(csr.N, w, 0)
			csr.LapMulMulti(dst, x)
			want := make([][]float64, w)
			for j := 0; j < w; j++ {
				want[j] = make([]float64, csr.N)
				csr.LapMul(want[j], x[j])
			}
			requireBitsEqual(t, name, dst, want)
		}
	}
}

// TestPoolLapMulMultiMatchesSerial: the pooled multi SpMV must be
// bit-identical to the serial multi (and hence to per-column LapMul) for
// every pool width, above and below the work cutover.
func TestPoolLapMulMultiMatchesSerial(t *testing.T) {
	withProcs(t, 8)
	for _, side := range []int{20, 120} { // below / above SpMVCutover
		csr := graph.NewCSR(testGrid(side, side))
		for _, workers := range []int{2, 3, 7} {
			p := New(workers)
			defer p.Close()
			part := csr.NNZPartition(p.Workers())
			for _, w := range []int{1, 2, 5, graph.MaxMulti} {
				x := multiBlock(csr.N, w, 2.5)
				dst := multiBlock(csr.N, w, 0)
				forks := p.Forks()
				p.LapMulMulti(csr, part, dst, x)
				// Above the cutover every width forks, width 1 included: a
				// single-column block keeps the pooled product's parallelism.
				if forked := p.Forks() - forks; csr.SpMVWork() >= SpMVCutover && forked != 1 {
					t.Fatalf("side %d workers %d width %d: %d forks, want 1", side, workers, w, forked)
				}
				want := make([][]float64, w)
				for j := 0; j < w; j++ {
					want[j] = make([]float64, csr.N)
					csr.LapMul(want[j], x[j])
				}
				requireBitsEqual(t, "pool", dst, want)
			}
		}
	}
}

// TestPoolMultiKernelsMatchSingle: each pooled multi-vector kernel must be
// bit-identical, per column, to its pooled single-vector counterpart — the
// property the blocked solvers' column ≡ width-1 contract rests on. Vector
// lengths straddle VecCutover so both routes are exercised.
func TestPoolMultiKernelsMatchSingle(t *testing.T) {
	withProcs(t, 8)
	for _, n := range []int{1000, VecCutover + 17} {
		for _, workers := range []int{2, 5} {
			p := New(workers)
			defer p.Close()
			const w = 3
			a, b, c := multiBlock(n, w, 1), multiBlock(n, w, 2), multiBlock(n, w, 3)
			alpha := []float64{0.5, -1.25, 2.0}

			out := make([]float64, w)
			p.DotMulti(a, b, out)
			for j := 0; j < w; j++ {
				if want := p.Dot(a[j], b[j]); math.Float64bits(out[j]) != math.Float64bits(want) {
					t.Fatalf("DotMulti n=%d col %d: %g != %g", n, j, out[j], want)
				}
			}

			o1, o2 := make([]float64, w), make([]float64, w)
			p.Dot2Multi(a, b, c, o1, o2)
			for j := 0; j < w; j++ {
				wx, wy := p.Dot2(a[j], b[j], c[j])
				if math.Float64bits(o1[j]) != math.Float64bits(wx) || math.Float64bits(o2[j]) != math.Float64bits(wy) {
					t.Fatalf("Dot2Multi n=%d col %d mismatch", n, j)
				}
			}

			p.DotNormMulti(a, b, o1, o2)
			for j := 0; j < w; j++ {
				wab, wbb := p.DotNorm(a[j], b[j])
				if math.Float64bits(o1[j]) != math.Float64bits(wab) || math.Float64bits(o2[j]) != math.Float64bits(wbb) {
					t.Fatalf("DotNormMulti n=%d col %d mismatch", n, j)
				}
			}

			// AXPY2: run multi and single on separate clones, compare state.
			x1, r1 := cloneBlock(a), cloneBlock(b)
			x2, r2 := cloneBlock(a), cloneBlock(b)
			p.AXPY2Multi(x1, r1, alpha, b, c, o1)
			for j := 0; j < w; j++ {
				want := p.AXPY2(x2[j], r2[j], alpha[j], b[j], c[j])
				if math.Float64bits(o1[j]) != math.Float64bits(want) {
					t.Fatalf("AXPY2Multi n=%d col %d norm mismatch", n, j)
				}
			}
			requireBitsEqual(t, "AXPY2Multi x", x1, x2)
			requireBitsEqual(t, "AXPY2Multi r", r1, r2)

			d1, d2 := cloneBlock(a), cloneBlock(a)
			p.XPBYIntoMulti(d1, b, alpha)
			for j := 0; j < w; j++ {
				p.XPBYInto(d2[j], b[j], alpha[j])
			}
			requireBitsEqual(t, "XPBYIntoMulti", d1, d2)
		}
	}
}

// testGrid builds a side x side unit grid.
func testGrid(r, c int) *graph.Graph {
	g := graph.New(r*c, 2*r*c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), 1)
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return g
}

// BenchmarkLapMulMulti compares one blocked product against b independent
// products — the coalescing win at the kernel level.
func BenchmarkLapMulMulti(b *testing.B) {
	csr := graph.NewCSR(testGrid(100, 100))
	for _, w := range []int{1, 4, 8} {
		x := multiBlock(csr.N, w, 1)
		dst := multiBlock(csr.N, w, 0)
		b.Run(benchName("multi", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				csr.LapMulMulti(dst, x)
			}
		})
		b.Run(benchName("independent", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < w; j++ {
					csr.LapMul(dst[j], x[j])
				}
			}
		})
	}
}

func benchName(kind string, w int) string {
	return fmt.Sprintf("%s/width=%d", kind, w)
}
