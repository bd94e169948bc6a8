package precond

import (
	"context"
	"math"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// TestSolveBlockMatchesSolve: every column of a blocked preconditioned
// solve must agree with an independent Solve of that column, in both
// preconditioner regimes — the lockstep recurrences (BlockCG, and the
// factor sweeps or G's Jacobi diagonal) are per-column independent, so the
// agreement is bit-for-bit.
func TestSolveBlockMatchesSolve(t *testing.T) {
	gridG, gridH := testPair(t, 10, 10)
	for _, tc := range []struct {
		name     string
		g, h     *graph.Graph
		factored bool
	}{
		{"exact", gridG, gridH, true},
		{"fallback", complete(70, 1), complete(70, 2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkBlockMatchesSolve(t, tc.g, tc.h, tc.factored)
		})
	}
}

func checkBlockMatchesSolve(t *testing.T, g, h *graph.Graph, factored bool) {
	n := g.NumNodes()
	fact, err := Factorize(h, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fact.Factored() != factored {
		t.Fatalf("Factored() = %v, want %v", fact.Factored(), factored)
	}
	gop := sparse.NewLapOperator(g)

	const w = 4
	rng := vecmath.NewRNG(3)
	bs := make([][]float64, w)
	xs := make([][]float64, w)
	for j := range bs {
		bs[j] = make([]float64, n)
		rng.FillNormal(bs[j])
		xs[j] = make([]float64, n)
	}
	out := make([]sparse.ColumnResult, w)
	inner, err := fact.SolveBlock(context.Background(), gop, xs, bs, out, nil, solver.Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// Only the exact factor counts as a sparsifier solve.
	if (inner > 0) != factored {
		t.Fatalf("blocked solve reported %d factor applications, factored=%v", inner, factored)
	}

	for j := 0; j < w; j++ {
		if out[j].Err != nil || !out[j].Converged {
			t.Fatalf("column %d: %+v", j, out[j])
		}
		solo := make([]float64, n)
		res, err := fact.Solve(context.Background(), gop, solo, bs[j], solver.Options{Tol: 1e-8})
		if err != nil {
			t.Fatalf("column %d solo: %v", j, err)
		}
		if res.Outer.Iterations != out[j].Iterations {
			t.Errorf("column %d: %d blocked iterations vs %d solo", j, out[j].Iterations, res.Outer.Iterations)
		}
		for i := range solo {
			if math.Float64bits(solo[i]) != math.Float64bits(xs[j][i]) {
				t.Fatalf("column %d deviates from independent solve at entry %d: %g vs %g",
					j, i, xs[j][i], solo[i])
			}
		}
	}
}

// testPair builds a grid graph and a sparser preconditioning graph (the
// grid's spanning structure plus a few extra edges).
func testPair(t *testing.T, r, c int) (*graph.Graph, *graph.Graph) {
	t.Helper()
	g := graph.New(r*c, 2*r*c)
	h := graph.New(r*c, r*c+r)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), 1)
				// h keeps most of g: a close subgraph preconditions well, so
				// the blocked-vs-solo comparison exercises converging solves.
				if (i+j)%4 != 0 {
					h.AddEdge(id(i, j), id(i, j+1), 1)
				}
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), 1)
				h.AddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return g, h
}
