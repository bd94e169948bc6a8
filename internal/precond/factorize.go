package precond

import (
	"context"
	"fmt"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
)

// Factorization is the reusable, immutable half of a sparsifier
// preconditioner, in one of two regimes fixed by H at factorize time:
//
//   - exact: an LDLᵀ factor of the grounded L_H (see factorLDL), applied
//     by one forward and one backward sweep per CG iteration.
//   - Jacobi: when elimination meets a pivot of degree above
//     maxPivotDegree, no factor is kept and solves are plain Jacobi-PCG:
//     sparse.BlockCG preconditioned by the system operator's own Jacobi
//     diagonal.
//
// It also holds the engine-level solve defaults. Everything it holds is
// read-only after Factorize, so one Factorization can back any number of
// concurrent solves. It is the stack's one Laplacian solve: the service
// layer builds one per snapshot generation and keys its cache on that
// generation, which is how repeated solves against an unchanged graph skip
// re-factorization; cond.Estimate builds one of H per estimate and solves
// both pencils through it; partition.Fiedler builds one of the graph it
// partitions.
//
// Per-call mutable state (scratch workspace, headers, counters) lives in a
// pooled blockSolveState checked out for the duration of each Solve or
// SolveBlock, so warm solves allocate nothing.
type Factorization struct {
	n    int
	ldl  *ldl           // exact regime; nil in the Jacobi regime
	opts solver.Options // defaults applied
	bp   blockStatePool
}

// Factorize freezes the sparsifier h into a reusable preconditioner
// factorization: an exact LDLᵀ factor of L_H when minimum-degree
// elimination stays within the pivot-degree cap, and the Jacobi regime
// otherwise. opts supplies the engine-level defaults every solve against
// this factorization starts from (Tol, MaxIter, and the Workers / Format
// SolveGraph freezes its one-shot operator with).
func Factorize(h *graph.Graph, opts solver.Options) (*Factorization, error) {
	if h.NumNodes() == 0 {
		return nil, fmt.Errorf("precond: empty sparsifier")
	}
	f := &Factorization{
		n:    h.NumNodes(),
		ldl:  factorLDL(h),
		opts: opts.WithDefaults(h.NumNodes()),
	}
	f.bp.p.New = func() any {
		return &blockSolveState{f: f, ws: solver.NewWorkspace(f.n)}
	}
	return f, nil
}

// Dim returns the node count of the factorized sparsifier.
func (f *Factorization) Dim() int { return f.n }

// Factored reports whether the exact LDLᵀ factor preconditions solves
// (false: the system operator's Jacobi diagonal does).
func (f *Factorization) Factored() bool { return f.ldl != nil }

// FactorNNZ returns the entries stored in the LDLᵀ factor (L's
// off-diagonal entries plus D's pivots), or 0 in the Jacobi regime.
func (f *Factorization) FactorNNZ() int {
	if f.ldl == nil {
		return 0
	}
	return f.ldl.nnz()
}

// Solve runs preconditioned CG on L_G x = b, where sys is G's frozen
// Laplacian operator: preconditioned by L_H^+ through the exact factor, or
// by sys's own Jacobi diagonal in the Jacobi regime, where the result is
// bit-identical to a width-1 sparse.BlockCG over sys's projection with
// sys.Jacobi() (TestJacobiRegimeMatchesJacobiPCG). It is a width-1
// SolveBlock whose column headers and result slot live in the pooled solve
// state. b is mean-centered internally (Laplacian systems are only
// consistent on the complement of ones); the solution written into x is
// mean-zero. sys must have dimension Dim; it is projected onto the
// complement of ones in place, without allocating.
//
// opts overrides the factorization defaults field-wise for this request
// (Tol, MaxIter; Workers and Format are frozen into sys). ctx aborts the
// loop within one iteration of cancellation, returning partial stats
// alongside a solver.ErrCancelled-wrapped error; the column's own outcome
// (ErrNoConvergence, a breakdown) is returned as the error otherwise.
//
// Safe for any number of concurrent callers; each call checks a private
// solve state out of the factorization's pool.
func (f *Factorization) Solve(ctx context.Context, sys *sparse.LapOperator, x, b []float64, opts solver.Options) (SolveResult, error) {
	st := f.bp.get()
	defer f.bp.put(st)
	st.x1[0], st.b1[0] = x, b
	st.out1[0] = sparse.ColumnResult{}
	inner, err := f.solveBlock(ctx, st, sys, st.x1[:], st.b1[:], st.out1[:], nil, opts)
	res := st.out1[0]
	if err == nil {
		err = res.Err
	}
	return SolveResult{Outer: res.CGResult, InnerUses: inner}, err
}

// SolveGraph is Solve against a one-shot graph G: it freezes G's Laplacian
// operator per call (O(N+E)), so prefer Solve with a cached operator for
// repeated systems.
func (f *Factorization) SolveGraph(ctx context.Context, g *graph.Graph, x, b []float64, opts solver.Options) (SolveResult, error) {
	eff := f.opts.Override(opts)
	gop := sparse.NewLapOperator(g)
	gop.SetWorkers(eff.Workers)
	gop.SetFormat(eff.Format)
	return f.Solve(ctx, gop, x, b, opts)
}
