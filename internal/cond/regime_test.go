package cond

import (
	"context"
	"math"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/precond"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// randomComplete returns K_n with weights drawn uniformly from [0.5, 2].
// Every pivot of its elimination has degree n-1, so for n = 70 it is over
// precond's pivot-degree cap.
func randomComplete(n int, seed uint64) *graph.Graph {
	rng := vecmath.NewRNG(seed)
	g := graph.New(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v, rng.Range(0.5, 2))
		}
	}
	return g
}

// treePlusPencil returns a randomly weighted r x c grid G and an H made of
// a spanning tree of G plus every third off-tree edge at 1.5 times its
// weight, so L_H is above L_G in some directions and lambda_min < 1.
func treePlusPencil(r, c int, seed uint64) (g, h *graph.Graph) {
	rng := vecmath.NewRNG(seed)
	g = grid(r, c)
	for i := range g.All() {
		g.SetWeight(i, rng.Range(0.2, 5))
	}
	h = graph.New(g.NumNodes(), g.NumEdges())
	uf := graph.NewUnionFind(g.NumNodes())
	off := 0
	for _, e := range g.All() {
		switch {
		case uf.Union(e.U, e.V):
			h.AddEdge(e.U, e.V, e.W)
		case off%3 == 0:
			h.AddEdge(e.U, e.V, 1.5*e.W)
			off++
		default:
			off++
		}
	}
	return g, h
}

// TestEstimateBothRegimesMatchDenseOracle checks the two-sided estimate
// against the dense pencil in both regimes of the factorization its solves
// run through: an H that factors exactly, and an H over the pivot-degree
// cap, whose solves are Jacobi-PCG on each pencil's own operator. Each case
// pins its regime first. The tight estimate must match both exact extremes;
// the default one must stay inside them and within defRel of the exact
// kappa. The two random K70s have a clustered pencil spectrum (exact
// extremes 0.84 and 1.18), where power iteration at the default Tol stops
// about 5% low, so that case gets the 10% band of
// TestEstimateMatchesDenseOracle.
func TestEstimateBothRegimesMatchDenseOracle(t *testing.T) {
	gridG, gridH := treePlusPencil(8, 9, 4)
	for _, tc := range []struct {
		name     string
		g, h     *graph.Graph
		factored bool
		defRel   float64
	}{
		{"exact/grid8x9", gridG, gridH, true, 0.05},
		{"jacobi/K70", randomComplete(70, 1), randomComplete(70, 11), false, 0.10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := precond.Factorize(tc.h, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if f.Factored() != tc.factored {
				t.Fatalf("Factorize(h).Factored() = %v, want %v", f.Factored(), tc.factored)
			}
			vals, err := DensePencil(tc.g, tc.h)
			if err != nil {
				t.Fatal(err)
			}
			wantMin, wantMax := vals[0], vals[len(vals)-1]
			wantKappa := wantMax / wantMin
			if wantMin >= 1 {
				t.Fatalf("exact lambda_min %v: the pencil does not exercise the lambda_min side", wantMin)
			}

			tight, err := Estimate(context.Background(), tc.g, tc.h, Options{
				Seed: 1, MaxIters: 2000, Tol: 1e-10, Solver: solver.Options{Tol: 1e-12},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(tight.LambdaMax-wantMax) / wantMax; rel > 1e-3 {
				t.Errorf("tight lambda_max %v vs exact %v (rel %.2g)", tight.LambdaMax, wantMax, rel)
			}
			if rel := math.Abs(tight.LambdaMin-wantMin) / wantMin; rel > 1e-3 {
				t.Errorf("tight lambda_min %v vs exact %v (rel %.2g)", tight.LambdaMin, wantMin, rel)
			}

			def, err := Estimate(context.Background(), tc.g, tc.h, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(def.Kappa-wantKappa) / wantKappa; rel > tc.defRel {
				t.Errorf("default kappa %v vs exact %v (rel %.2g)", def.Kappa, wantKappa, rel)
			}
			if def.LambdaMax > wantMax*(1+1e-9) || def.LambdaMin < wantMin*(1-1e-9) {
				t.Errorf("default extremes [%v, %v] outside exact [%v, %v]", def.LambdaMin, def.LambdaMax, wantMin, wantMax)
			}
			t.Logf("exact [%.6g, %.6g] kappa %.6g; tight kappa %.6g (%d+%d iterations); default kappa %.6g",
				wantMin, wantMax, wantKappa, tight.Kappa, tight.ItersMax, tight.ItersMin, def.Kappa)
		})
	}
}

// BenchmarkEstimate times one two-sided estimate, with the stream
// benchmark's iteration and solver settings, of a GRASS sparsifier at
// density 0.10 in each regime of the factorization of H: fe_4elt2, whose H
// factors exactly, and social_ba, whose H is over the pivot-degree cap.
func BenchmarkEstimate(b *testing.B) {
	for _, tc := range []struct {
		name     string
		scale    float64
		factored bool
	}{
		{"fe_4elt2", 0.25, true},
		{"social_ba", 0.25, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			spec, err := gen.Lookup(tc.name)
			if err != nil {
				b.Fatal(err)
			}
			g, err := spec.Build(tc.scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			init, err := grass.Sparsify(g, grass.Config{TargetDensity: 0.10, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			f, err := precond.Factorize(init.H, solver.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if f.Factored() != tc.factored {
				b.Fatalf("Factorize(h).Factored() = %v, want %v", f.Factored(), tc.factored)
			}
			opts := Options{MaxIters: 40, Tol: 5e-3, Seed: 1, Solver: solver.Options{Tol: 1e-5, MaxIter: 600}}
			var res Result
			for b.Loop() {
				if res, err = Estimate(context.Background(), g, init.H, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Kappa, "kappa")
		})
	}
}
