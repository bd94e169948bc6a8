package precond

import (
	"context"
	"fmt"
	"sync"

	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// blockSolveState is the per-call mutable half of a solve: the scratch
// workspace, the request context, and the header arenas and BlockScratch
// bookkeeping both nesting levels of a blocked solve need. It
// implements sparse.BlockPreconditioner — per application, one sweep pair
// over the exact factor, or in the fallback regime one truncated blocked
// Jacobi-PCG on L_H, for the whole active column set. States are pooled on
// the Factorization and confined to one solve call tree while checked out.
type blockSolveState struct {
	f            *Factorization
	ws           *solver.Workspace
	ctx          context.Context
	inner        solver.Options
	applications int
	callerProj   sparse.ProjectedOperator

	outerSC  sparse.BlockScratch
	innerSC  sparse.BlockScratch
	outerRHS [][]float64 // header arena for the centered outer rhs block
	innerRHS [][]float64 // header arena for each preconditioner application
	innerOut []sparse.ColumnResult

	// x1, b1, and out1 are the column headers and result slot of a
	// single-column Solve (a width-1 block).
	x1, b1 [1][]float64
	out1   [1]sparse.ColumnResult

	// spans holds one outer-solve span per original column; inner-solve
	// children (innerSpans, live for one application) are attributed
	// through the active-column mapping the outer solver pushes via
	// SetActiveColumns. traced gates the bookkeeping so untraced blocks pay
	// one boolean check per application.
	spans      [sparse.MaxBlockWidth]trace.Span
	innerSpans [sparse.MaxBlockWidth]trace.Span
	activeCols [sparse.MaxBlockWidth]int
	activeN    int
	traced     bool
}

// headers returns arena resliced to m entries, reusing its backing storage.
func headers(arena *[][]float64, m int) [][]float64 {
	h := (*arena)[:0]
	for i := 0; i < m; i++ {
		h = append(h, nil)
	}
	*arena = h
	return h
}

// SetActiveColumns records which original columns the next PrecondBlock
// application covers (sparse.ActiveColumnsAware).
func (st *blockSolveState) SetActiveColumns(cols []int) {
	if !st.traced {
		return
	}
	st.activeN = copy(st.activeCols[:], cols)
}

// PrecondBlock computes dst[j] ~= L_H^+ src[j] (mean-centered) for the
// whole active column set. With an exact factor that is one forward and one
// backward sweep over L for all columns. In the fallback regime it is one
// truncated blocked Jacobi-PCG: columns are independent inside the inner
// BlockCG, so column j's arithmetic does not depend on which other columns
// share the application; convergence failures of the truncated solve are
// expected and benign — the partial iterate is still an SPD-like
// contraction the outer flexible CG accepts. A cancelled context makes the
// inner solve return immediately; the outer loop then observes the same
// context and aborts.
func (st *blockSolveState) PrecondBlock(dst, src [][]float64) {
	st.applications++
	m := len(src)
	traced := st.traced && st.activeN == m
	if traced {
		for i := 0; i < m; i++ {
			st.innerSpans[i] = st.spans[st.activeCols[i]].StartChild(trace.SpanSolveInner)
		}
	}
	if st.f.ldl != nil {
		for j := 0; j < m; j++ {
			copy(dst[j], src[j])
			vecmath.CenterMean(dst[j])
		}
		st.f.ldl.solve(dst[:m])
	} else {
		st.truncatedSolve(dst, src)
	}
	for j := 0; j < m; j++ {
		vecmath.CenterMean(dst[j])
	}
	if traced {
		for i := 0; i < m; i++ {
			st.innerSpans[i].End()
			st.innerSpans[i] = trace.Span{}
		}
	}
}

// truncatedSolve runs the fallback regime's inner solve: a blocked
// Jacobi-PCG on L_H from a zero start, capped by the inner options.
func (st *blockSolveState) truncatedSolve(dst, src [][]float64) {
	m := len(src)
	mark := st.ws.Mark()
	defer st.ws.Release(mark)
	rhs := headers(&st.innerRHS, m)
	for j := 0; j < m; j++ {
		rhs[j] = st.ws.Take()
		copy(rhs[j], src[j])
		vecmath.CenterMean(rhs[j])
		vecmath.Zero(dst[j])
	}
	if cap(st.innerOut) < m {
		st.innerOut = make([]sparse.ColumnResult, m)
	}
	_ = sparse.BlockCG(st.ctx, st.f.proj, sparse.BlockSpec{
		X: dst, B: rhs, Out: st.innerOut[:m],
	}, st.f.hop.Jacobi(), st.ws, &st.innerSC, st.inner)
}

var _ sparse.BlockPreconditioner = (*blockSolveState)(nil)

// blockStatePool wraps sync.Pool with typed checkout for blocked states.
type blockStatePool struct {
	p sync.Pool
}

func (bp *blockStatePool) get() *blockSolveState { return bp.p.Get().(*blockSolveState) }
func (bp *blockStatePool) put(st *blockSolveState) {
	st.ctx = nil
	st.callerProj.Inner = nil
	st.x1[0], st.b1[0] = nil, nil
	st.spans = [sparse.MaxBlockWidth]trace.Span{}
	st.activeN = 0
	st.traced = false
	bp.p.Put(st)
}

// SolveBlock runs one blocked flexible-CG solve of sys x[j] = b[j] for up
// to sparse.MaxBlockWidth right-hand sides, preconditioned by blocked
// solves of L_H: each outer iteration applies the system operator once to
// the whole block, and each preconditioner application runs one blocked
// sweep pair over the factor (or, in the fallback regime, one blocked
// truncated inner solve) — so G's operator and H's factor or operator are
// each traversed once per iteration for all columns, instead of once per
// column.
//
// Per-column semantics match Solve exactly: every b[j] is mean-centered
// internally, every solution written into x[j] is mean-zero, and column j's
// arithmetic is bit-identical to an independent Solve of that column (the
// lockstep recurrences are mathematically independent; see sparse.BlockCG,
// and the factor sweeps run each column's operations in a fixed order).
// opts overrides the factorization defaults field-wise for the whole group
// — coalesced requests must share option sets, which the batch scheduler
// guarantees. colCtx optionally carries one context per column: a cancelled
// column is masked out of the block within one outer iteration and recorded
// in out, without disturbing the remaining columns; ctx cancels the whole
// group. out receives one ColumnResult per column; the returned int is the
// number of (blocked) preconditioner applications. The returned error is
// reserved for structural failures and whole-group cancellation.
//
// Safe for any number of concurrent callers; each call checks a private
// blocked solve state out of the factorization's pool, and the warm path
// allocates nothing.
func (f *Factorization) SolveBlock(ctx context.Context, sys sparse.Operator, xs, bs [][]float64, out []sparse.ColumnResult, colCtx []context.Context, opts solver.Options) (int, error) {
	st := f.bp.get()
	defer f.bp.put(st)
	return f.solveBlock(ctx, st, sys, xs, bs, out, colCtx, opts)
}

// solveBlock is the one body behind Solve and SolveBlock, run on a
// checked-out solve state.
func (f *Factorization) solveBlock(ctx context.Context, st *blockSolveState, sys sparse.Operator, xs, bs [][]float64, out []sparse.ColumnResult, colCtx []context.Context, opts solver.Options) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sys.Dim() != f.n {
		return 0, fmt.Errorf("%w: precond system dim %d != sparsifier dim %d", sparse.ErrDimension, sys.Dim(), f.n)
	}
	w := len(xs)
	if len(bs) != w || len(out) != w || w > sparse.MaxBlockWidth {
		return 0, fmt.Errorf("%w: precond block widths xs=%d bs=%d out=%d (max %d)", sparse.ErrDimension, w, len(bs), len(out), sparse.MaxBlockWidth)
	}
	for j := 0; j < w; j++ {
		if len(xs[j]) != f.n || len(bs[j]) != f.n {
			return 0, fmt.Errorf("%w: precond column %d dims x=%d b=%d n=%d", sparse.ErrDimension, j, len(xs[j]), len(bs[j]), f.n)
		}
	}
	eff := f.opts.Override(opts)

	st.ctx = ctx
	st.inner = eff.Inner()
	st.applications = 0
	st.traced = false
	st.activeN = 0
	for j := 0; j < w; j++ {
		c := ctx
		if colCtx != nil && colCtx[j] != nil {
			c = colCtx[j]
		}
		st.spans[j] = trace.FromContext(c).StartChild(trace.SpanSolveOuter)
		if st.spans[j].Tracing() {
			st.traced = true
		}
	}

	op, ok := sys.(*sparse.ProjectedOperator)
	if !ok {
		st.callerProj.Inner = sys
		op = &st.callerProj
	}

	mark := st.ws.Mark()
	defer st.ws.Release(mark)
	rhs := headers(&st.outerRHS, w)
	for j := 0; j < w; j++ {
		rhs[j] = st.ws.Take()
		copy(rhs[j], bs[j])
		vecmath.CenterMean(rhs[j])
		vecmath.Zero(xs[j])
	}
	err := sparse.BlockFlexibleCG(ctx, op, sparse.BlockSpec{
		X: xs, B: rhs, ColCtx: colCtx, Out: out,
	}, st, st.ws, &st.outerSC, eff)
	for j := 0; j < w; j++ {
		vecmath.CenterMean(xs[j])
		st.spans[j].SetAttr(trace.AttrIterations, int64(out[j].Iterations))
		st.spans[j].SetAttr(trace.AttrInnerUses, int64(st.applications))
		st.spans[j].End()
	}
	return st.applications, err
}
