package sparse

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

func randomConnectedGraph(seed uint64, n, extra int) *graph.Graph {
	r := vecmath.NewRNG(seed)
	g := graph.New(n, n+extra)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)], r.Range(0.1, 10))
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, r.Range(0.1, 10))
		}
	}
	return g
}

// Property: the Jacobi-PCG Laplacian solve produces a true pseudo-inverse
// action — L (L^+ b) = b for mean-zero b, and the solution is mean-zero.
func TestSolverPseudoInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnectedGraph(seed, 25, 40)
		r := vecmath.NewRNG(seed ^ 0x5)
		b := make([]float64, 25)
		r.FillNormal(b)
		vecmath.CenterMean(b)
		x := make([]float64, 25)
		if _, err := jacobiPCG(context.Background(), NewLapOperator(g), x, b, solver.Options{Tol: 1e-11}); err != nil {
			return false
		}
		if math.Abs(vecmath.Sum(x)) > 1e-6*(1+vecmath.NormInf(x)) {
			return false
		}
		lx := make([]float64, 25)
		g.LapMul(lx, x)
		vecmath.Sub(lx, lx, b)
		return vecmath.Norm2(lx) <= 1e-6*vecmath.Norm2(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: width-1 BlockCG agrees with the dense oracle on random SPD
// systems (Laplacian + small diagonal shift).
func TestCGAgainstDenseOracleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnectedGraph(seed, 15, 20)
		const shift = 0.5
		lop := NewLapOperator(g)
		op := &FuncOperator{N: 15, Fn: func(dst, x []float64) {
			lop.Apply(dst, x)
			for i := range dst {
				dst[i] += shift * x[i]
			}
		}}
		r := vecmath.NewRNG(seed ^ 0x77)
		b := make([]float64, 15)
		r.FillNormal(b)

		dense := DenseLaplacian(g)
		for i := 0; i < 15; i++ {
			dense.Add(i, i, shift)
		}
		want, err := vecmath.SolveSPD(dense, b)
		if err != nil {
			return false
		}

		x := make([]float64, 15)
		if _, err := cg1(context.Background(), op, x, b, nil, solver.Options{Tol: 1e-12}); err != nil {
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
