package sparse

import (
	"context"
	"fmt"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// LaplacianSolver bundles a graph Laplacian with a Jacobi-preconditioned CG
// configuration; each solve is a width-1 BlockCG. Scratch for every solve is checked out of the underlying
// operator's workspace pool per call, so the many repeated solves issued by
// resistance queries and condition-number pencils run allocation-free once
// the pool is warm.
//
// All solves are performed in the orthogonal complement of the all-ones
// vector: right-hand sides are mean-centered on entry and solutions are
// mean-centered on exit, which is exactly the pseudo-inverse action
// x = L^+ b for a connected graph.
//
// The solver handle itself is goroutine-confined (it carries counters);
// many handles can share one LapOperator.
type LaplacianSolver struct {
	op   *ProjectedOperator
	jac  *Jacobi
	pool *solver.Pool
	opts solver.Options
	n    int

	// Width-1 block headers, result slot, and bookkeeping for the blocked
	// solver. The handle is goroutine-confined, so keeping them here keeps
	// warm solves allocation-free.
	x1, b1 [1][]float64
	out1   [1]ColumnResult
	sc     BlockScratch

	// Solve statistics, accumulated across calls.
	Solves     int
	TotalIters int
}

// NewLaplacianSolver freezes g and prepares a solver. A zero opts means
// defaults (tol 1e-8); opts.Workers > 1 enables parallel Laplacian
// application.
func NewLaplacianSolver(g *graph.Graph, opts solver.Options) *LaplacianSolver {
	lop := NewLapOperator(g)
	lop.SetWorkers(opts.Workers)
	lop.SetFormat(opts.Format)
	return NewLaplacianSolverFromOperator(lop, opts)
}

// NewLaplacianSolverFromOperator prepares a solver around an already-frozen
// Laplacian operator, skipping the O(N+E) CSR construction. The returned
// solver shares the operator's Jacobi preconditioner and workspace pool, so
// many goroutine-confined solvers can share one operator: that is how the
// service layer hands each concurrent reader a private solve handle over a
// single per-snapshot factorization.
func NewLaplacianSolverFromOperator(lop *LapOperator, opts solver.Options) *LaplacianSolver {
	n := lop.Dim()
	return &LaplacianSolver{
		op:   &ProjectedOperator{Inner: lop},
		jac:  lop.Jacobi(),
		pool: lop.Workspaces(),
		opts: opts.WithDefaults(n),
		n:    n,
	}
}

// Dim returns the system dimension.
func (s *LaplacianSolver) Dim() int { return s.n }

// Options returns the solver's effective (defaults-applied) options.
func (s *LaplacianSolver) Options() solver.Options { return s.opts }

// ApplyLap computes dst = L x using the solver's frozen Laplacian (the
// forward operator, not its pseudo-inverse). Pencil estimators need both
// directions and reuse the same CSR through this method.
func (s *LaplacianSolver) ApplyLap(dst, x []float64) {
	s.op.Inner.Apply(dst, x)
}

// Solve computes x = L^+ b into dst. b is not modified (dst may alias b).
// dst, b must have length Dim(). Returns the CG diagnostics;
// solver.ErrNoConvergence is reported but dst still holds the best iterate,
// and a cancelled ctx aborts with a solver.ErrCancelled-wrapped error.
func (s *LaplacianSolver) Solve(ctx context.Context, dst, b []float64) (CGResult, error) {
	if len(b) != s.n {
		return CGResult{}, fmt.Errorf("%w: Solve rhs length %d != n=%d", ErrDimension, len(b), s.n)
	}
	ws := s.pool.Get()
	defer s.pool.Put(ws)
	rhs := ws.Take()
	copy(rhs, b)
	vecmath.CenterMean(rhs)
	res, err := s.solve(ctx, ws, dst, rhs)
	vecmath.CenterMean(dst)
	return res, err
}

// solve runs x = L^+ rhs (rhs already mean-centered) as a width-1 BlockCG
// from a zero start and accounts it. Structural errors (a dst of the wrong
// length) come back from BlockCG's own validation.
func (s *LaplacianSolver) solve(ctx context.Context, ws *solver.Workspace, x, rhs []float64) (CGResult, error) {
	vecmath.Zero(x)
	s.x1[0], s.b1[0] = x, rhs
	s.out1[0] = ColumnResult{}
	err := BlockCG(ctx, s.op, BlockSpec{X: s.x1[:], B: s.b1[:], Out: s.out1[:]}, s.jac, ws, &s.sc, s.opts)
	s.x1[0], s.b1[0] = nil, nil
	res := s.out1[0]
	s.Solves++
	s.TotalIters += res.Iterations
	if err == nil {
		err = res.Err
	}
	return res.CGResult, err
}

// SolvePair computes the potential difference x_p - x_q where x = L^+ b_pq.
// This is exactly the effective resistance between p and q.
func (s *LaplacianSolver) SolvePair(ctx context.Context, p, q int) (float64, error) {
	if p == q {
		return 0, nil
	}
	ws := s.pool.Get()
	defer s.pool.Put(ws)
	rhs := ws.Take()
	sol := ws.Take()
	vecmath.Basis(rhs, p, q)
	vecmath.CenterMean(rhs)
	_, err := s.solve(ctx, ws, sol, rhs)
	return sol[p] - sol[q], err
}
