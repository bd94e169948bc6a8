// Package cond estimates the relative condition number kappa(L_G, L_H) —
// the spectral-similarity metric reported in all of the paper's tables. It
// is the ratio of the extreme generalized eigenvalues of the pencil
// L_G u = lambda L_H u restricted to the complement of the all-ones vector.
//
// The estimator runs power iterations on the operators L_H^+ L_G (largest
// eigenvalue) and L_G^+ L_H (reciprocal of the smallest), with every
// pseudo-inverse application performed by a Jacobi-preconditioned conjugate
// gradient solve. The package tests check both extremes against a dense
// oracle of the pencil, including on sparsifiers the inGRASS update phase
// has rewritten (TestEstimateMatchesDenseOracleAfterUpdates).
//
// With LambdaMaxOnly the estimate clamps lambda_min to 1. The clamp is exact
// only while L_H ⪯ L_G, and inGRASS's merge and redistribute weight
// transfer breaks that condition, so after updates the one-sided kappa can
// understate the two-sided one several-fold (see Options.LambdaMaxOnly).
package cond

import (
	"context"
	"fmt"
	"math"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// Options configures the estimator.
type Options struct {
	// MaxIters bounds power iterations per extreme. Default 60.
	MaxIters int
	// Tol is the relative Rayleigh-quotient change at which iteration
	// stops. Default 1e-3 (three significant figures, plenty for tables).
	Tol float64
	// Solver configures the inner pseudo-inverse solves (tolerance default
	// 1e-6) and Laplacian-application parallelism (Solver.Workers, frozen
	// into both pencil operators' kernel pools for the whole estimate).
	Solver solver.Options
	// Seed drives the random start vector.
	Seed uint64
	// StartVector, when non-nil with one entry per node, seeds the
	// lambda_max power iteration in place of the random draw (it is
	// deflated against ones and normalized first; a collapsed vector falls
	// back to the random start). Feeding back Result.Vector from a previous
	// estimate warm-starts the iteration: the maintenance loop's periodic
	// drift checks converge in a couple of iterations this way, because the
	// pencil's top eigenvector moves slowly under incremental edge churn.
	StartVector []float64
	// LambdaMaxOnly reports kappa = lambda_max(L_H^+ L_G), clamping
	// lambda_min to 1 and skipping the inverse pencil (no G-side solver is
	// built). This is the convention of the GRASS line of papers. The clamp
	// is exact only while L_H ⪯ L_G, as for a subgraph H of G with G's
	// weights. inGRASS's merge and redistribute weight transfer breaks that
	// condition: after the Table II stream at oracle size,
	// TestEstimateMatchesDenseOracleAfterUpdates measures lambda_min at
	// 0.27-0.34 with transfer on, and a two-sided kappa 2.9-3.8 times the
	// one-sided one. Leave it false for the two-sided pencil estimate.
	LambdaMaxOnly bool
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 60
	}
	if o.Tol <= 0 {
		o.Tol = 1e-3
	}
	if o.Solver.Tol == 0 {
		o.Solver.Tol = 1e-6
	}
	return o
}

// Result reports the pencil extremes and their ratio.
type Result struct {
	LambdaMax float64
	LambdaMin float64
	Kappa     float64
	// Iterations actually used for (max, min).
	ItersMax, ItersMin int
	// Vector is the final lambda_max iterate (unit norm, ones-deflated).
	// Pass it as Options.StartVector to warm-start the next estimate on a
	// slightly mutated pencil.
	Vector []float64
}

// Estimate computes kappa(L_G, L_H). Both graphs must have the same node
// count and be connected; otherwise the pencil has spurious zero/infinite
// eigenvalues and an error is returned. ctx is threaded into every inner
// solve and checked once per power iteration; cancellation aborts with a
// solver.ErrCancelled-wrapped error.
func Estimate(ctx context.Context, g, h *graph.Graph, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g.NumNodes() != h.NumNodes() {
		return Result{}, fmt.Errorf("cond: node counts differ: %d vs %d", g.NumNodes(), h.NumNodes())
	}
	n := g.NumNodes()
	if n < 2 {
		return Result{LambdaMax: 1, LambdaMin: 1, Kappa: 1}, nil
	}
	if !graph.IsConnected(g) {
		return Result{}, fmt.Errorf("cond: G is disconnected")
	}
	if !graph.IsConnected(h) {
		return Result{}, fmt.Errorf("cond: H is disconnected (sparsifier must span)")
	}
	o := opts.withDefaults()

	// Each Laplacian is frozen once: its operator is the forward product
	// of one pencil and backs the pseudo-inverse solves of the other.
	gOp := sparse.NewLapOperator(g)
	gOp.SetWorkers(o.Solver.Workers)
	gOp.SetFormat(o.Solver.Format)
	hOp := sparse.NewLapOperator(h)
	hOp.SetWorkers(o.Solver.Workers)
	hOp.SetFormat(o.Solver.Format)

	lmax, itMax, vec, err := pencilPower(ctx, gOp, sparse.NewLaplacianSolverFromOperator(hOp, o.Solver), o, o.StartVector)
	if err != nil {
		return Result{}, fmt.Errorf("cond: lambda_max: %w", err)
	}
	res := Result{LambdaMax: lmax, LambdaMin: 1, ItersMax: itMax, Vector: vec}
	if !o.LambdaMaxOnly {
		// The inverse pencil swaps the roles of G and H.
		linvMin, itMin, _, err := pencilPower(ctx, hOp, sparse.NewLaplacianSolverFromOperator(gOp, o.Solver), o, nil)
		if err != nil {
			return Result{}, fmt.Errorf("cond: lambda_min: %w", err)
		}
		res.LambdaMin = 1 / linvMin
		res.ItersMin = itMin
	}
	res.Kappa = res.LambdaMax / res.LambdaMin
	return res, nil
}

// pencilPower runs power iteration for the largest eigenvalue of
// solveB^+ applied after opA, i.e. the largest lambda of A u = lambda B u.
// The Rayleigh quotient used is (x'Ax)/(x'Bx), evaluated matrix-free.
// start, when usable (right length, non-degenerate after deflation), seeds
// the iteration; the final iterate is returned alongside the estimate.
func pencilPower(ctx context.Context, opA sparse.Operator, solveB *sparse.LaplacianSolver, o Options, start []float64) (float64, int, []float64, error) {
	n := opA.Dim()
	x := make([]float64, n)
	ax := make([]float64, n)
	y := make([]float64, n)
	seeded := false
	if len(start) == n {
		copy(x, start)
		vecmath.ProjectOutOnes(x)
		seeded = vecmath.Normalize(x) > 0
	}
	if !seeded {
		rng := vecmath.NewRNG(o.Seed + 0x5bd1)
		rng.FillNormal(x)
		vecmath.ProjectOutOnes(x)
		if vecmath.Normalize(x) == 0 {
			return 0, 0, nil, fmt.Errorf("start vector collapsed")
		}
	}

	prev := 0.0
	rho := 0.0
	iters := 0
	for k := 0; k < o.MaxIters; k++ {
		if err := solver.CheckCancel(ctx); err != nil {
			return rho, iters, nil, err
		}
		iters = k + 1
		opA.Apply(ax, x)
		num := vecmath.Dot(x, ax) // x' A x

		// den = x' B x via the solver's forward operator; reuse y as scratch.
		solveB.ApplyLap(y, x)
		den := vecmath.Dot(x, y)
		if den <= 0 {
			return 0, iters, nil, fmt.Errorf("pencil denominator %g not positive", den)
		}
		rho = num / den

		// Next iterate: y = B^+ A x. A loose inner solve only slows
		// convergence of the outer iteration; ignore ErrNoConvergence. A
		// cancelled inner solve, however, leaves y = 0 and would otherwise
		// masquerade as convergence via the Normalize break below — check
		// the context before interpreting the iterate.
		_, _ = solveB.Solve(ctx, y, ax)
		if err := solver.CheckCancel(ctx); err != nil {
			return rho, iters, nil, err
		}
		vecmath.ProjectOutOnes(y)
		if vecmath.Normalize(y) == 0 {
			break
		}
		copy(x, y)
		if prev > 0 && math.Abs(rho-prev) <= o.Tol*rho {
			break
		}
		prev = rho
	}
	return rho, iters, append([]float64(nil), x...), nil
}
