package cond

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"ingrass/internal/core"
	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
)

// DensePencil returns the ascending generalized eigenvalues of the pencil
// (L_G, L_H) on the complement of ones, computed densely: the exact oracle
// the estimator is checked against on small graphs (n up to a few hundred).
//
// Grounding the last node restricts both quadratic forms to
// {x : x[n-1] = 0}, a complement of the ones vector; x'Lx is blind to
// shifts along ones, so the grounded pencil has the same n-1 eigenvalues.
// With R the Cholesky factor of the grounded L_H (positive definite iff H
// is connected), they are the eigenvalues of the symmetric R⁻¹ L_G R⁻ᵀ.
func DensePencil(g, h *graph.Graph) ([]float64, error) {
	n := g.NumNodes()
	if n != h.NumNodes() {
		return nil, fmt.Errorf("cond: node counts differ")
	}
	if n < 2 {
		return nil, nil
	}
	m := n - 1
	grounded := func(gr *graph.Graph) [][]float64 {
		l := sparse.DenseLaplacian(gr)
		rows := make([][]float64, m)
		for i := range rows {
			rows[i] = append([]float64(nil), l.Row(i)[:m]...)
		}
		return rows
	}
	a, r := grounded(g), grounded(h)

	// In-place Cholesky: the lower triangle of r becomes R with R R' = L_H.
	for j := 0; j < m; j++ {
		d := r[j][j]
		for k := 0; k < j; k++ {
			d -= r[j][k] * r[j][k]
		}
		if d <= 1e-12 {
			return nil, fmt.Errorf("cond: H Laplacian singular on ones-complement (disconnected?)")
		}
		r[j][j] = math.Sqrt(d)
		for i := j + 1; i < m; i++ {
			s := r[i][j]
			for k := 0; k < j; k++ {
				s -= r[i][k] * r[j][k]
			}
			r[i][j] = s / r[j][j]
		}
	}
	// lowerSolve replaces every row y of rows with R⁻¹ y.
	lowerSolve := func(rows [][]float64) {
		for _, y := range rows {
			for i := range y {
				s := y[i]
				for k := 0; k < i; k++ {
					s -= r[i][k] * y[k]
				}
				y[i] = s / r[i][i]
			}
		}
	}
	// L_G is symmetric, so its rows are its columns: after the first solve
	// row j of a is column j of X = R⁻¹ L_G. Transposing and solving again
	// makes row j column j of R⁻¹ X' = R⁻¹ L_G R⁻ᵀ.
	lowerSolve(a)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			a[i][j], a[j][i] = a[j][i], a[i][j]
		}
	}
	lowerSolve(a)
	// Symmetrize against round-off before the eigensolve.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			v := 0.5 * (a[i][j] + a[j][i])
			a[i][j], a[j][i] = v, v
		}
	}
	return symEigvals(a)
}

// symEigvals returns the ascending eigenvalues of the symmetric matrix a
// (destroyed): Householder reduction to tridiagonal form, then the implicit
// QL iteration with Wilkinson shifts. O(n³) once instead of per Jacobi
// sweep, which keeps the oracle fast enough for race-detector runs.
func symEigvals(a [][]float64) ([]float64, error) {
	n := len(a)
	d := make([]float64, n)
	e := make([]float64, n)
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var scale, h float64
		for k := 0; k <= l; k++ {
			scale += math.Abs(a[i][k])
		}
		if l == 0 || scale == 0 {
			e[i] = a[i][l]
			continue
		}
		for k := 0; k <= l; k++ {
			a[i][k] /= scale
			h += a[i][k] * a[i][k]
		}
		f := a[i][l]
		g := -math.Copysign(math.Sqrt(h), f)
		e[i] = scale * g
		h -= f * g
		a[i][l] = f - g
		f = 0
		for j := 0; j <= l; j++ {
			g = 0
			for k := 0; k <= j; k++ {
				g += a[j][k] * a[i][k]
			}
			for k := j + 1; k <= l; k++ {
				g += a[k][j] * a[i][k]
			}
			e[j] = g / h
			f += e[j] * a[i][j]
		}
		hh := f / (h + h)
		for j := 0; j <= l; j++ {
			f = a[i][j]
			g = e[j] - hh*f
			e[j] = g
			for k := 0; k <= j; k++ {
				a[j][k] -= f*e[k] + g*a[i][k]
			}
		}
	}
	for i := range d {
		d[i] = a[i][i]
	}
	// d is the tridiagonal's diagonal; shift e so e[i] couples i and i+1.
	copy(e, e[1:])
	e[n-1] = 0
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == 60 {
				return nil, fmt.Errorf("cond: tridiagonal QL did not converge")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f, b := s*e[i], c*e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s, c = f/r, g/r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	sort.Float64s(d)
	return d, nil
}

// streamedPencil reproduces the Table II protocol at oracle size: a 10%
// GRASS sparsifier of g, then a 0.24·|E| local edge stream in 10 batches
// through the inGRASS update phase. It returns the final (G, H).
func streamedPencil(t *testing.T, g *graph.Graph, disableTransfer bool) (*graph.Graph, *graph.Graph) {
	t.Helper()
	init, err := grass.InitialSparsifier(g, 0.10, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := gen.Stream(g, gen.StreamConfig{
		Kind: gen.StreamLocal, Count: int(0.24 * float64(g.NumEdges())), Batches: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.NewSparsifier(g.Clone(), init.H.Clone(), core.Config{
		TargetCond:            100,
		DisableWeightTransfer: disableTransfer,
		LRD:                   lrd.Config{Krylov: krylov.Config{Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range stream {
		if _, err := sp.UpdateBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return sp.G, sp.H
}

// TestEstimateMatchesDenseOracleAfterUpdates checks the two-sided estimator
// against the dense pencil on sparsifiers the update phase has rewritten.
// Merge and redistribute weight transfer can push L_H above L_G in some
// directions, so lambda_min drops below 1 and the one-sided LambdaMaxOnly
// kappa understates the true one; the two-sided estimate must track both
// exact extremes.
func TestEstimateMatchesDenseOracleAfterUpdates(t *testing.T) {
	build := func(name string) (*graph.Graph, error) {
		if name == "delaunay_300" {
			return gen.Delaunay(300, 1)
		}
		tc, err := gen.Lookup(name)
		if err != nil {
			return nil, err
		}
		return tc.Build(0.02, 1)
	}
	ctx := context.Background()
	for _, name := range []string{"delaunay_300", "social_ba", "fe_4elt2"} {
		g, err := build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, disable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/disable_transfer=%v", name, disable), func(t *testing.T) {
				gs, hs := streamedPencil(t, g, disable)
				vals, err := DensePencil(gs, hs)
				if err != nil {
					t.Fatal(err)
				}
				wantMin, wantMax := vals[0], vals[len(vals)-1]
				wantKappa := wantMax / wantMin

				tight, err := Estimate(ctx, gs, hs, Options{
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

				def, err := Estimate(ctx, gs, hs, Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if rel := math.Abs(def.Kappa-wantKappa) / wantKappa; rel > 0.05 {
					t.Errorf("default kappa %v vs exact %v (rel %.2g)", def.Kappa, wantKappa, rel)
				}
				// Both extremes are Rayleigh quotients of the pencil, so they
				// approach the exact ones from inside the spectrum.
				if def.LambdaMax > wantMax*(1+1e-9) || def.LambdaMin < wantMin*(1-1e-9) {
					t.Errorf("default extremes [%v, %v] outside exact [%v, %v]", def.LambdaMin, def.LambdaMax, wantMin, wantMax)
				}
				t.Logf("n=%d lambda_min=%.4g lambda_max=%.4g exact kappa=%.4g, default estimate %.4g (%.2f%% low), one-sided %.4g",
					gs.NumNodes(), wantMin, wantMax, wantKappa, def.Kappa,
					100*(wantKappa-def.Kappa)/wantKappa, def.LambdaMax)
			})
		}
	}
}
