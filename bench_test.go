package ingrass

// Micro-kernel and ablation benchmarks: the per-edge update cost behind the
// paper's O(log N) claim, the setup phases and solves in isolation, and the
// ablations called out in DESIGN.md. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's tables and figure are produced by cmd/experiments
// (internal/bench); end-to-end numbers with a noise band come from the
// benchmark/ module that BENCHMARK.json declares.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ingrass/internal/core"
	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/partition"
	"ingrass/internal/precond"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/tree"
	"ingrass/internal/vecmath"
)

// BenchScale shrinks the paper's graph sizes to benchmark-friendly ones.
const BenchScale = 0.1

// cachedGraphs memoizes generated benchmark graphs across benchmarks.
var cachedGraphs sync.Map // name -> *graph.Graph

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := cachedGraphs.Load(name); ok {
		return g.(*graph.Graph)
	}
	tc, err := gen.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := tc.Build(BenchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	cachedGraphs.Store(name, g)
	return g
}

func benchSparsifier(b *testing.B, g *graph.Graph) *grass.Result {
	b.Helper()
	res, err := grass.Sparsify(g, grass.Config{
		TargetDensity:    0.10,
		Tree:             grass.TreeLowStretch,
		SimilarityFilter: true,
		Seed:             1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchStream(b *testing.B, g *graph.Graph, count, batches int) [][]graph.Edge {
	b.Helper()
	s, err := gen.Stream(g, gen.StreamConfig{
		Kind:    gen.StreamLocal,
		Count:   count,
		Batches: batches,
		Seed:    7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// --- Ablations (DESIGN.md section 5) --------------------------------------

// BenchmarkAblationTree compares the two spanning-tree backbones of the
// GRASS baseline.
func BenchmarkAblationTree(b *testing.B) {
	g := benchGraph(b, "delaunay_n14")
	for _, kind := range []struct {
		name string
		k    grass.TreeKind
	}{{"lowstretch", grass.TreeLowStretch}, {"maxweight", grass.TreeMaxWeight}} {
		b.Run(kind.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := grass.Sparsify(g, grass.Config{
					TargetDensity: 0.10, Tree: kind.k, SimilarityFilter: true, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKrylovOrder sweeps the resistance-embedding subspace
// dimension m (setup cost grows with m; estimation quality saturates).
func BenchmarkAblationKrylovOrder(b *testing.B) {
	g := benchGraph(b, "fe_4elt2")
	for _, m := range []int{8, 16, 24, 32} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := krylov.NewEmbedding(g, krylov.Config{Order: m, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWeightTransfer compares update throughput with the
// paper's weight transfer on versus pure discard.
func BenchmarkAblationWeightTransfer(b *testing.B) {
	g := benchGraph(b, "g2_circuit")
	init := benchSparsifier(b, g)
	stream := benchStream(b, g, int(0.2*float64(g.NumEdges())), 10)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"transfer", false}, {"discard", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := g.Clone()
				hi := init.H.Clone()
				sp, err := core.NewSparsifier(gi, hi, core.Config{
					TargetCond:            100,
					DisableWeightTransfer: mode.disable,
					LRD:                   lrd.Config{Krylov: krylov.Config{Seed: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range stream {
					if _, err := sp.UpdateBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Microbenchmarks -------------------------------------------------------

// BenchmarkUpdatePerEdge isolates the per-edge update cost across graph
// sizes — the paper's O(log N) claim. ns/op is per single-edge batch.
func BenchmarkUpdatePerEdge(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		g, err := gen.Delaunay(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		init, err := grass.Sparsify(g, grass.Config{
			TargetDensity: 0.10, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		gi := g.Clone()
		hi := init.H.Clone()
		sp, err := core.NewSparsifier(gi, hi, core.Config{
			TargetCond: 100,
			LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
		})
		if err != nil {
			b.Fatal(err)
		}
		stream, err := gen.Stream(g, gen.StreamConfig{Kind: gen.StreamLocal, Count: 4096, Batches: 1, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		flat := stream[0]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := flat[i%len(flat)]
				// Re-add the same pool cyclically; parallel edges are legal.
				if _, err := sp.UpdateBatch([]graph.Edge{e}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKrylovEmbedding measures setup phase 1 alone.
func BenchmarkKrylovEmbedding(b *testing.B) {
	g := benchGraph(b, "delaunay_n14")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := krylov.NewEmbedding(g, krylov.Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLRDBuild measures setup phase 2 alone.
func BenchmarkLRDBuild(b *testing.B) {
	g := benchGraph(b, "delaunay_n14")
	h := benchSparsifier(b, g).H
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.Build(h, lrd.Config{Krylov: krylov.Config{Seed: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLapSolve measures one Jacobi-PCG Laplacian solve, the inner
// kernel of exact resistance and condition-number estimation.
func BenchmarkLapSolve(b *testing.B) {
	g := benchGraph(b, "fe_4elt2")
	s := sparse.NewLaplacianSolver(g, solver.Options{Tol: 1e-6})
	rhs := make([]float64, g.NumNodes())
	vecmath.NewRNG(1).FillNormal(rhs)
	vecmath.CenterMean(rhs)
	dst := make([]float64, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(context.Background(), dst, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreePathOracle measures O(1) tree resistance queries.
func BenchmarkTreePathOracle(b *testing.B) {
	g := benchGraph(b, "delaunay_n14")
	st := tree.LowStretch(g, 1)
	oracle := tree.NewPathOracle(st)
	n := g.NumNodes()
	r := vecmath.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = oracle.Resistance(r.Intn(n), r.Intn(n))
	}
}

// BenchmarkDelaunayGeneration measures the Bowyer-Watson triangulator.
func BenchmarkDelaunayGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.Delaunay(10000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFilterLevel sweeps the filtering level cap: shallow
// levels (fine clusters) include more edges per batch; deep levels filter
// aggressively. Measures the full update stream per setting.
func BenchmarkAblationFilterLevel(b *testing.B) {
	g := benchGraph(b, "fe_4elt2")
	init := benchSparsifier(b, g)
	stream := benchStream(b, g, int(0.2*float64(g.NumEdges())), 10)
	for _, cap := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("maxLevel=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := g.Clone()
				hi := init.H.Clone()
				sp, err := core.NewSparsifier(gi, hi, core.Config{
					TargetCond:     1e9, // let MaxFilterLevel dominate
					MaxFilterLevel: cap,
					LRD:            lrd.Config{Krylov: krylov.Config{Seed: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, batch := range stream {
					if _, err := sp.UpdateBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPartitionSparsified compares spectral bisection on the full
// graph versus through the sparsifier (the examples/partition workflow).
func BenchmarkPartitionSparsified(b *testing.B) {
	g, err := gen.RandomGeometric(3000, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	init := benchSparsifier(b, g)
	opts := partition.Options{Seed: 1, MaxIters: 25}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.Bisect(context.Background(), g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparsified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.BisectWithSparsifier(context.Background(), g, init.H, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolvePreconditioned compares Jacobi-PCG against the
// sparsifier-preconditioned flexible CG on a heterogeneous power grid.
// The sparsifier cuts OUTER iterations (see precond tests) but each outer
// step pays an inner truncated solve; at benchmark scale Jacobi wins on
// wall clock, and the sparsifier pays off as G grows denser relative to H
// (amortized further by reusing H across many right-hand sides).
func BenchmarkSolvePreconditioned(b *testing.B) {
	g := benchGraph(b, "g2_circuit")
	init := benchSparsifier(b, g)
	n := g.NumNodes()
	rhs := make([]float64, n)
	vecmath.NewRNG(2).FillNormal(rhs)
	vecmath.CenterMean(rhs)
	b.Run("jacobi", func(b *testing.B) {
		s := sparse.NewLaplacianSolver(g, solver.Options{Tol: 1e-8, MaxIter: 10000})
		for i := 0; i < b.N; i++ {
			x := make([]float64, n)
			if _, err := s.Solve(context.Background(), x, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparsifier", func(b *testing.B) {
		p, err := precond.Factorize(init.H, solver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			x := make([]float64, n)
			if _, err := p.SolveGraph(context.Background(), g, x, rhs, solver.Options{Tol: 1e-8, MaxIter: 10000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
