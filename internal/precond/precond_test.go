package precond

import (
	"context"
	"errors"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

func grid(r, c int) *graph.Graph {
	g := graph.New(r*c, 2*r*c)
	id := func(i, j int) int { return i*c + j }
	rng := vecmath.NewRNG(9)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), rng.Range(0.2, 5))
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), rng.Range(0.2, 5))
			}
		}
	}
	return g
}

func TestFactorizeErrors(t *testing.T) {
	if _, err := Factorize(graph.New(0, 0), solver.Options{}); err == nil {
		t.Fatal("expected empty-sparsifier error")
	}
}

func TestSolveCorrectness(t *testing.T) {
	g := grid(15, 15)
	init, err := grass.InitialSparsifier(g, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Factorize(init.H, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	b := make([]float64, n)
	vecmath.NewRNG(2).FillNormal(b)
	vecmath.CenterMean(b)
	x := make([]float64, n)
	res, err := p.SolveGraph(context.Background(), g, x, b, solver.Options{Tol: 1e-9, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outer.Converged {
		t.Fatalf("no convergence: %+v", res)
	}
	// Verify the residual directly.
	lx := make([]float64, n)
	g.LapMul(lx, x)
	vecmath.Sub(lx, lx, b)
	if vecmath.Norm2(lx) > 1e-7*vecmath.Norm2(b) {
		t.Fatalf("residual %v", vecmath.Norm2(lx))
	}
	if res.InnerUses == 0 {
		t.Fatal("preconditioner never used")
	}
}

func TestSparsifierPrecondBeatsJacobi(t *testing.T) {
	// On a heterogeneous grid, the sparsifier preconditioner should cut
	// outer iterations versus Jacobi alone — the whole point of spectral
	// sparsification.
	g := grid(25, 25)
	init, err := grass.InitialSparsifier(g, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	b := make([]float64, n)
	vecmath.NewRNG(3).FillNormal(b)
	vecmath.CenterMean(b)

	// Jacobi-PCG baseline (a width-1 BlockCG).
	lop := sparse.NewLapOperator(g)
	proj := &sparse.ProjectedOperator{Inner: lop}
	resJ, err := cg1(false, proj, make([]float64, n), b, lop.Jacobi(), solver.Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}

	// Sparsifier-preconditioned FCG.
	p, err := Factorize(init.H, solver.Options{InnerIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	xS := make([]float64, n)
	resS, err := p.Solve(context.Background(), proj, xS, b, solver.Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if resS.Outer.Iterations >= resJ.Iterations {
		t.Fatalf("sparsifier precond did not reduce outer iterations: %d vs %d",
			resS.Outer.Iterations, resJ.Iterations)
	}
}

// cg1 runs a width-1 BlockCG (or BlockFlexibleCG) of a x = b and returns
// the column's stats with the error a single right-hand-side caller sees.
func cg1(flexible bool, a sparse.Operator, x, b []float64, pre sparse.BlockPreconditioner, opts solver.Options) (sparse.CGResult, error) {
	out := make([]sparse.ColumnResult, 1)
	run := sparse.BlockCG
	if flexible {
		run = sparse.BlockFlexibleCG
	}
	err := run(context.Background(), a, sparse.BlockSpec{X: [][]float64{x}, B: [][]float64{b}, Out: out}, pre, nil, nil, opts)
	if err == nil {
		err = out[0].Err
	}
	return out[0].CGResult, err
}

func TestFlexibleCGZeroRHS(t *testing.T) {
	g := grid(4, 4)
	op := &sparse.ProjectedOperator{Inner: sparse.NewLapOperator(g)}
	x := make([]float64, g.NumNodes())
	vecmath.Fill(x, 3)
	res, err := cg1(true, op, x, make([]float64, g.NumNodes()), nil, solver.Options{})
	if err != nil || !res.Converged {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if vecmath.Norm2(x) != 0 {
		t.Fatal("zero rhs must give zero solution")
	}
}

func TestFlexibleCGMatchesCGUnpreconditioned(t *testing.T) {
	g := grid(8, 8)
	op := &sparse.ProjectedOperator{Inner: sparse.NewLapOperator(g)}
	n := g.NumNodes()
	b := make([]float64, n)
	vecmath.NewRNG(4).FillNormal(b)
	vecmath.CenterMean(b)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	r1, err1 := cg1(false, op, x1, b, nil, solver.Options{Tol: 1e-10})
	r2, err2 := cg1(true, op, x2, b, nil, solver.Options{Tol: 1e-10})
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if !r1.Converged || !r2.Converged {
		t.Fatal("both must converge")
	}
	// Same solution up to tolerance.
	for i := range x1 {
		if d := x1[i] - x2[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

func TestFlexibleCGDimensionError(t *testing.T) {
	g := grid(3, 3)
	op := sparse.NewLapOperator(g)
	if _, err := cg1(true, op, make([]float64, 2), make([]float64, 9), nil, solver.Options{}); !errors.Is(err, sparse.ErrDimension) {
		t.Fatalf("want ErrDimension, got %v", err)
	}
}
