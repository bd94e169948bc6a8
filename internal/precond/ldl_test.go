package precond

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// randomConnected builds a connected graph on n nodes: a random spanning
// tree plus extra random edges, with weights spread over two decades.
func randomConnected(n, extra int, seed uint64) *graph.Graph {
	rng := vecmath.NewRNG(seed)
	g := graph.New(n, n+extra)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, rng.Range(0.1, 10))
	}
	for k := 0; k < extra && n > 1; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, rng.Range(0.1, 10))
		}
	}
	return g
}

// complete builds K_n with weights in [0.5, 2).
func complete(n int, seed uint64) *graph.Graph {
	rng := vecmath.NewRNG(seed)
	g := graph.New(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v, rng.Range(0.5, 2))
		}
	}
	return g
}

// applyPrecond runs one application of f's exact factor on the columns of
// src through a pooled solve state, as BlockCG does.
func applyPrecond(f *Factorization, src [][]float64) [][]float64 {
	st := f.bp.get()
	defer f.bp.put(st)
	dst := make([][]float64, len(src))
	for j := range dst {
		dst[j] = make([]float64, f.n)
	}
	st.PrecondBlock(dst, src)
	return dst
}

func randomRHS(n, w int, seed uint64) [][]float64 {
	rng := vecmath.NewRNG(seed)
	bs := make([][]float64, w)
	for j := range bs {
		bs[j] = make([]float64, n)
		rng.FillNormal(bs[j])
		vecmath.CenterMean(bs[j])
	}
	return bs
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestLDLMatchesPseudoInverse: in the exact regime one preconditioner
// application is L_H^+ b, checked against the dense pseudo-inverse oracle.
func TestLDLMatchesPseudoInverse(t *testing.T) {
	for _, tc := range []struct{ n, extra int }{{2, 0}, {5, 3}, {17, 20}, {40, 60}, {90, 120}} {
		for seed := uint64(1); seed <= 3; seed++ {
			h := randomConnected(tc.n, tc.extra, seed)
			f, err := Factorize(h, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !f.Factored() {
				t.Fatalf("n=%d seed=%d: want the exact regime", tc.n, seed)
			}
			lap := sparse.DenseLaplacian(h)
			for _, b := range randomRHS(tc.n, 2, seed+10) {
				want, err := vecmath.PseudoInverseApply(lap, b)
				if err != nil {
					t.Fatal(err)
				}
				got := applyPrecond(f, [][]float64{b})[0]
				vecmath.Sub(got, got, want)
				if rel := vecmath.Norm2(got) / vecmath.Norm2(want); !(rel <= 1e-10) {
					t.Fatalf("n=%d seed=%d: relative error %g vs pseudo-inverse", tc.n, seed, rel)
				}
			}
		}
	}
}

// TestLDLSingleNode: a one-node sparsifier is its own ground; solves give
// the zero vector without a panic or a NaN.
func TestLDLSingleNode(t *testing.T) {
	h := graph.New(1, 0)
	f, err := Factorize(h, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Factored() || f.FactorNNZ() != 0 {
		t.Fatalf("factored=%v nnz=%d, want an empty exact factor", f.Factored(), f.FactorNNZ())
	}
	x := []float64{math.Pi}
	res, err := f.SolveGraph(context.Background(), h, x, []float64{1}, solver.Options{})
	if err != nil || !res.Outer.Converged {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if x[0] != 0 {
		t.Fatalf("x = %v, want 0", x)
	}
}

// TestLDLTwoComponents: each component is grounded at one node, so a
// right-hand side that is mean-zero on each component converges to the
// exact answer.
func TestLDLTwoComponents(t *testing.T) {
	a, b := randomConnected(30, 25, 4), randomConnected(20, 15, 5)
	h := graph.New(50, a.NumEdges()+b.NumEdges())
	for _, e := range a.All() {
		h.AddEdge(e.U, e.V, e.W)
	}
	for _, e := range b.All() {
		h.AddEdge(30+e.U, 30+e.V, e.W)
	}
	f, err := Factorize(h, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Factored() || len(f.ldl.ground) != 2 {
		t.Fatalf("factored=%v, want the exact regime with two grounds", f.Factored())
	}
	rhs := make([]float64, 50)
	vecmath.NewRNG(6).FillNormal(rhs)
	vecmath.CenterMean(rhs[:30])
	vecmath.CenterMean(rhs[30:])
	x := make([]float64, 50)
	res, err := f.SolveGraph(context.Background(), h, x, rhs, solver.Options{Tol: 1e-10})
	if err != nil || !res.Outer.Converged {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	lx := make([]float64, 50)
	h.LapMul(lx, x)
	for i := range lx {
		if math.IsNaN(x[i]) || math.Abs(lx[i]-rhs[i]) > 1e-8 {
			t.Fatalf("entry %d: (Lx)=%g b=%g x=%g", i, lx[i], rhs[i], x[i])
		}
	}
}

// TestDisconnectedSparsifierStopsEarly: a sparsifier split into two
// components under a connected G gives a singular preconditioner, which
// leaves one direction CG cannot reach. Once r'z stops being positive the
// solve must report it, long before the iteration budget runs out.
func TestDisconnectedSparsifierStopsEarly(t *testing.T) {
	const n = 200
	g := ring(n)
	h := graph.New(n, g.NumEdges())
	for _, e := range g.All() {
		if (e.U < n/2) == (e.V < n/2) {
			h.AddEdge(e.U, e.V, e.W)
		}
	}
	f, err := Factorize(h, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Factored() || len(f.ldl.ground) != 2 {
		t.Fatalf("factored=%v, want the exact regime with two grounds", f.Factored())
	}
	for seed := uint64(1); seed <= 3; seed++ {
		x := make([]float64, n)
		res, err := f.SolveGraph(context.Background(), g, x, randomRHS(n, 1, seed)[0], solver.Options{Tol: 1e-10})
		if err == nil || errors.Is(err, solver.ErrNoConvergence) || res.Outer.Converged {
			t.Fatalf("seed %d: res=%+v err=%v, want a not-positive preconditioner error", seed, res.Outer, err)
		}
		if res.Outer.Iterations >= n {
			t.Fatalf("seed %d: ran %d iterations before stopping", seed, res.Outer.Iterations)
		}
		for i := range x {
			if math.IsNaN(x[i]) {
				t.Fatalf("seed %d: NaN in the returned iterate at %d", seed, i)
			}
		}
	}
}

// TestLDLExtremeWeights: fill weights are formed from w/√pivot, so a
// sparsifier whose weights all sit near the ends of the float64 range
// factors without the overflow or underflow of a plain w_i·w_j product.
func TestLDLExtremeWeights(t *testing.T) {
	for _, scale := range []float64{1e-300, 1e-160, 1e160, 1e300} {
		base := randomConnected(30, 40, 13)
		h := graph.New(30, base.NumEdges())
		for _, e := range base.All() {
			h.AddEdge(e.U, e.V, scale*e.W)
		}
		f, err := Factorize(h, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := randomRHS(30, 1, 14)[0]
		x := applyPrecond(f, [][]float64{b})[0]
		lx := make([]float64, 30)
		h.LapMul(lx, x)
		vecmath.Sub(lx, lx, b)
		if rel := vecmath.Norm2(lx) / vecmath.Norm2(b); !(rel <= 1e-10) {
			t.Fatalf("weights ×%g: relative residual %g", scale, rel)
		}
	}
}

// TestLDLParallelEdges: parallel edges are summed in edge-index order, the
// order graph.Coalesce sums them in, so both graphs give the same factor.
func TestLDLParallelEdges(t *testing.T) {
	base := randomConnected(25, 30, 7)
	h := graph.New(25, 2*base.NumEdges())
	for i, e := range base.All() {
		h.AddEdge(e.U, e.V, e.W)
		if i%3 == 0 {
			h.AddEdge(e.V, e.U, 0.25*e.W)
		}
	}
	fp, err := Factorize(h, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := Factorize(h.Coalesce(), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bs := randomRHS(25, 3, 8)
	gp, gc := applyPrecond(fp, bs), applyPrecond(fc, bs)
	lap := sparse.DenseLaplacian(h)
	for j := range bs {
		if !sameBits(gp[j], gc[j]) {
			t.Fatalf("column %d: parallel-edge factor differs from the coalesced one", j)
		}
		want, err := vecmath.PseudoInverseApply(lap, bs[j])
		if err != nil {
			t.Fatal(err)
		}
		vecmath.Sub(want, want, gp[j])
		if vecmath.Norm2(want) > 1e-10*vecmath.Norm2(gp[j]) {
			t.Fatalf("column %d: parallel-edge factor off the pseudo-inverse", j)
		}
	}
}

// TestFactorizeDeterministic: two factorizations of the same H solve bit
// for bit alike, as replicas and WAL recovery need.
func TestFactorizeDeterministic(t *testing.T) {
	g := grid(20, 20)
	init, err := grass.InitialSparsifier(g, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := randomRHS(g.NumNodes(), 1, 9)[0]
	var xs [2][]float64
	var iters [2]int
	for k := range xs {
		f, err := Factorize(init.H, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !f.Factored() {
			t.Fatal("grid sparsifier hit the pivot-degree cap")
		}
		xs[k] = make([]float64, g.NumNodes())
		res, err := f.SolveGraph(context.Background(), g, xs[k], b, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		iters[k] = res.Outer.Iterations
	}
	if iters[0] != iters[1] || !sameBits(xs[0], xs[1]) {
		t.Fatalf("factorizations of one H solve differently (%d vs %d iterations)", iters[0], iters[1])
	}
}

// jacobiPCG is Jacobi-PCG on sys run directly through sparse.BlockCG: b
// mean-centered, a width-1 block from a zero start over the projected
// operator with sys's own Jacobi diagonal, and the solution mean-centered.
func jacobiPCG(sys *sparse.LapOperator, x, b []float64, opts solver.Options) (sparse.CGResult, error) {
	rhs := append([]float64(nil), b...)
	vecmath.CenterMean(rhs)
	vecmath.Zero(x)
	out := make([]sparse.ColumnResult, 1)
	err := sparse.BlockCG(context.Background(), &sparse.ProjectedOperator{Inner: sys},
		sparse.BlockSpec{X: [][]float64{x}, B: [][]float64{rhs}, Out: out}, sys.Jacobi(), nil, nil, opts)
	vecmath.CenterMean(x)
	if err == nil {
		err = out[0].Err
	}
	return out[0].CGResult, err
}

// TestJacobiRegimeMatchesJacobiPCG: when H's elimination stops at the
// pivot-degree cap, Solve is Jacobi-PCG on G, bit for bit the BlockCG run
// over the same operator with its Jacobi diagonal. K70's first pivot has
// degree 69; the power-law sparsifier's hubs stop it as well.
func TestJacobiRegimeMatchesJacobiPCG(t *testing.T) {
	socialG, socialH := sparsifierOf(t, "social_ba", 0.25)
	for _, tc := range []struct {
		name string
		g, h *graph.Graph
	}{
		{"K70", complete(70, 1), complete(70, 11)},
		{"social_ba@0.25", socialG, socialH},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Factorize(tc.h, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if f.Factored() || f.FactorNNZ() != 0 {
				t.Fatalf("factored=%v nnz=%d: want the Jacobi regime", f.Factored(), f.FactorNNZ())
			}
			n := tc.g.NumNodes()
			gop := sparse.NewLapOperator(tc.g)
			opts := solver.Options{Tol: 1e-8}
			for k, b := range randomRHS(n, 3, 12) {
				got := make([]float64, n)
				res, err := f.Solve(context.Background(), gop, got, b, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, n)
				wres, err := jacobiPCG(gop, want, b, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Outer != wres || res.InnerUses != 0 {
					t.Fatalf("rhs %d: %+v (%d factor applications) vs Jacobi-PCG %+v", k, res.Outer, res.InnerUses, wres)
				}
				if !sameBits(got, want) {
					t.Fatalf("rhs %d: solution differs from Jacobi-PCG", k)
				}
			}
		})
	}
}

// sparsifierOf builds a named test graph at scale and its GRASS sparsifier
// with the settings the serving stack uses (10% off-tree density).
func sparsifierOf(tb testing.TB, name string, scale float64) (g, h *graph.Graph) {
	tb.Helper()
	tc, err := gen.Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	g, err = tc.Build(scale, 1)
	if err != nil {
		tb.Fatal(err)
	}
	init, err := grass.Sparsify(g, grass.Config{TargetDensity: 0.10, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return g, init.H
}

var factorSink *Factorization

// BenchmarkFactorize times Factorize on the sparsifiers of the serving mesh
// (fe_4elt2@0.25), the full mesh and a power-law graph, and reports which
// regime each lands in and the factor's size.
func BenchmarkFactorize(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"fe_4elt2", 0.25}, {"fe_4elt2", 1}, {"social_ba", 1}} {
		_, h := sparsifierOf(b, c.name, c.scale)
		b.Run(fmt.Sprintf("%s@%g", c.name, c.scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := Factorize(h, solver.Options{})
				if err != nil {
					b.Fatal(err)
				}
				factorSink = f
			}
			factored := 0.0
			if factorSink.Factored() {
				factored = 1
			}
			b.ReportMetric(factored, "factored")
			b.ReportMetric(float64(factorSink.FactorNNZ()), "nnz")
		})
	}
}

// BenchmarkSolveOverCap times serial (Workers 1) solves of L_G x = b
// through a cached factorization of G's sparsifier, at tolerances 1e-5 and
// 1e-8, on graphs whose sparsifier stops elimination at the pivot-degree
// cap. It reports the regime (factored 0 means G's Jacobi diagonal
// preconditions) and the CG iterations of the last solve. Run it with
// -benchtime 1x -count N for N timed solves per case.
func BenchmarkSolveOverCap(b *testing.B) {
	for _, name := range []string{"delaunay_n16", "g3_circuit", "fe_ocean", "social_ba"} {
		g, h := sparsifierOf(b, name, 1)
		f, err := Factorize(h, solver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		gop := sparse.NewLapOperator(g)
		rhs := randomRHS(g.NumNodes(), 1, 5)[0]
		x := make([]float64, g.NumNodes())
		for _, tol := range []float64{1e-5, 1e-8} {
			b.Run(fmt.Sprintf("%s/tol=%g", name, tol), func(b *testing.B) {
				var res SolveResult
				for i := 0; i < b.N; i++ {
					if res, err = f.Solve(context.Background(), gop, x, rhs, solver.Options{Tol: tol}); err != nil {
						b.Fatal(err)
					}
				}
				factored := 0.0
				if f.Factored() {
					factored = 1
				}
				b.ReportMetric(factored, "factored")
				b.ReportMetric(float64(res.Outer.Iterations), "iters")
			})
		}
	}
}
