package sparse

import (
	"context"
	"errors"
	"math"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// gridGraph builds an r x c grid with unit weights.
func gridGraph(r, c int) *graph.Graph {
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

func TestCGSolvesSPDDense(t *testing.T) {
	// Small SPD system via FuncOperator: A = tridiag(-1, 3, -1).
	const n = 20
	op := &FuncOperator{N: n, Fn: func(dst, x []float64) {
		for i := 0; i < n; i++ {
			s := 3 * x[i]
			if i > 0 {
				s -= x[i-1]
			}
			if i+1 < n {
				s -= x[i+1]
			}
			dst[i] = s
		}
	}}
	b := make([]float64, n)
	vecmath.NewRNG(1).FillNormal(b)
	x := make([]float64, n)
	res, err := cg1(context.Background(), op, x, b, nil, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	check := make([]float64, n)
	op.Apply(check, x)
	vecmath.Sub(check, check, b)
	if vecmath.Norm2(check) > 1e-6*vecmath.Norm2(b) {
		t.Fatalf("residual %v", vecmath.Norm2(check))
	}
}

func TestCGZeroRHS(t *testing.T) {
	op := &FuncOperator{N: 3, Fn: func(dst, x []float64) { copy(dst, x) }}
	x := []float64{1, 2, 3}
	res, err := cg1(context.Background(), op, x, make([]float64, 3), nil, solver.Options{})
	if err != nil || !res.Converged {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if vecmath.Norm2(x) != 0 {
		t.Fatalf("x = %v, want zero", x)
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	op := &FuncOperator{N: 3, Fn: func(dst, x []float64) { copy(dst, x) }}
	_, err := cg1(context.Background(), op, make([]float64, 2), make([]float64, 3), nil, solver.Options{})
	if !errors.Is(err, ErrDimension) {
		t.Fatalf("want ErrDimension, got %v", err)
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	// A = -I is negative definite; CG must report breakdown, not loop.
	op := &FuncOperator{N: 4, Fn: func(dst, x []float64) {
		for i := range dst {
			dst[i] = -x[i]
		}
	}}
	b := []float64{1, 0, 0, 0}
	x := make([]float64, 4)
	if _, err := cg1(context.Background(), op, x, b, nil, solver.Options{}); err == nil {
		t.Fatal("expected breakdown error")
	}
}

// jacobiPCG is the Laplacian pseudo-inverse solve in precond's Jacobi
// regime, run directly: b mean-centered, a width-1 BlockCG from a zero start
// over the projected operator with the operator's own Jacobi diagonal, and
// the solution mean-centered.
func jacobiPCG(ctx context.Context, lop *LapOperator, x, b []float64, opts solver.Options) (CGResult, error) {
	rhs := append([]float64(nil), b...)
	vecmath.CenterMean(rhs)
	vecmath.Zero(x)
	res, err := cg1(ctx, &ProjectedOperator{Inner: lop}, x, rhs, lop.Jacobi(), opts)
	vecmath.CenterMean(x)
	return res, err
}

func TestCGIterationLimit(t *testing.T) {
	// Force tiny iteration budget on a moderately conditioned problem.
	g := gridGraph(20, 20)
	b := make([]float64, g.NumNodes())
	vecmath.NewRNG(3).FillNormal(b)
	vecmath.CenterMean(b)
	dst := make([]float64, g.NumNodes())
	if _, err := jacobiPCG(context.Background(), NewLapOperator(g), dst, b, solver.Options{MaxIter: 2, Tol: 1e-14}); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence with 2 iterations, got %v", err)
	}
}

func TestJacobiPCGMatchesDenseOracle(t *testing.T) {
	g := gridGraph(5, 4)
	n := g.NumNodes()
	lop := NewLapOperator(g)
	dense := DenseLaplacian(g)

	r := vecmath.NewRNG(9)
	for trial := 0; trial < 5; trial++ {
		b := make([]float64, n)
		r.FillNormal(b)
		vecmath.CenterMean(b)
		want, err := vecmath.PseudoInverseApply(dense, b)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if _, err := jacobiPCG(context.Background(), lop, got, b, solver.Options{Tol: 1e-12}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-7 {
				t.Fatalf("trial %d entry %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestJacobiPrecondZeroDiagonal(t *testing.T) {
	p := NewJacobi([]float64{2, 0, 4})
	dst := [][]float64{make([]float64, 3)}
	p.PrecondBlock(dst, [][]float64{{2, 3, 8}})
	if dst[0][0] != 1 || dst[0][1] != 3 || dst[0][2] != 2 {
		t.Fatalf("precond = %v", dst[0])
	}
}

func TestJacobiSpeedsUpCG(t *testing.T) {
	// A grid Laplacian with widely varying weights: Jacobi should reduce
	// iterations versus plain CG.
	r := vecmath.NewRNG(5)
	g := graph.New(0, 0)
	const rows, cols = 15, 15
	for i := 0; i < rows*cols; i++ {
		g.AddNode()
	}
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				g.AddEdge(id(i, j), id(i, j+1), math.Pow(10, r.Range(-2, 2)))
			}
			if i+1 < rows {
				g.AddEdge(id(i, j), id(i+1, j), math.Pow(10, r.Range(-2, 2)))
			}
		}
	}
	b := make([]float64, g.NumNodes())
	r.FillNormal(b)
	vecmath.CenterMean(b)

	lop := NewLapOperator(g)
	proj := &ProjectedOperator{Inner: lop}

	xPlain := make([]float64, g.NumNodes())
	plain, errPlain := cg1(context.Background(), proj, xPlain, b, nil, solver.Options{Tol: 1e-10, MaxIter: 5000})
	xPre := make([]float64, g.NumNodes())
	pre, errPre := cg1(context.Background(), proj, xPre, b, lop.Jacobi(), solver.Options{Tol: 1e-10, MaxIter: 5000})
	if errPlain != nil || errPre != nil {
		t.Fatalf("plain err=%v pre err=%v", errPlain, errPre)
	}
	if pre.Iterations >= plain.Iterations {
		t.Fatalf("Jacobi did not help: %d vs %d iterations", pre.Iterations, plain.Iterations)
	}
}

func TestDenseLaplacianProperties(t *testing.T) {
	g := gridGraph(3, 3)
	l := DenseLaplacian(g)
	if !l.IsSymmetric(0) {
		t.Fatal("Laplacian must be symmetric")
	}
	// Row sums are zero.
	for i := 0; i < l.Rows; i++ {
		if math.Abs(vecmath.Sum(l.Row(i))) > 1e-12 {
			t.Fatalf("row %d sum %v", i, vecmath.Sum(l.Row(i)))
		}
	}
	// Quadratic form agrees with graph.QuadraticForm.
	x := make([]float64, g.NumNodes())
	vecmath.NewRNG(2).FillNormal(x)
	lx := make([]float64, len(x))
	l.MulVec(lx, x)
	if math.Abs(vecmath.Dot(x, lx)-g.QuadraticForm(x)) > 1e-9 {
		t.Fatal("dense quadratic form mismatch")
	}
}

func TestLapOperatorParallelAgrees(t *testing.T) {
	g := gridGraph(40, 40)
	serial := NewLapOperator(g)
	parallel := NewLapOperator(g)
	parallel.SetWorkers(4)
	x := make([]float64, g.NumNodes())
	vecmath.NewRNG(8).FillNormal(x)
	a := make([]float64, len(x))
	b := make([]float64, len(x))
	serial.Apply(a, x)
	parallel.Apply(b, x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-10 {
			t.Fatalf("parallel mismatch at %d", i)
		}
	}
	if serial.Dim() != g.NumNodes() {
		t.Fatal("Dim wrong")
	}
}
