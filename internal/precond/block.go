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
// workspace, the projected view of the caller's system operator, and the
// header arena and BlockScratch bookkeeping a blocked solve needs. In the
// exact regime it is also the sparse.BlockPreconditioner BlockCG applies:
// one sweep pair over the factor for the whole active column set. States
// are pooled on the Factorization and confined to one solve call tree while
// checked out.
type blockSolveState struct {
	f            *Factorization
	ws           *solver.Workspace
	applications int
	proj         sparse.ProjectedOperator

	sc  sparse.BlockScratch
	rhs [][]float64 // header arena for the centered rhs block

	// x1, b1, and out1 are the column headers and result slot of a
	// single-column Solve (a width-1 block).
	x1, b1 [1][]float64
	out1   [1]sparse.ColumnResult

	// spans holds one outer-solve span per original column; the children
	// for one factor application (innerSpans) are attributed through the
	// active-column mapping BlockCG pushes via SetActiveColumns. traced
	// gates the bookkeeping so untraced blocks pay one boolean check per
	// application.
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

// PrecondBlock computes dst[j] = L_H^+ src[j] (mean-centered) for the whole
// active column set: one forward and one backward sweep over the exact
// factor for all columns, each column's operations in a fixed order.
func (st *blockSolveState) PrecondBlock(dst, src [][]float64) {
	st.applications++
	m := len(src)
	traced := st.traced && st.activeN == m
	if traced {
		for i := 0; i < m; i++ {
			st.innerSpans[i] = st.spans[st.activeCols[i]].StartChild(trace.SpanSolveInner)
		}
	}
	for j := 0; j < m; j++ {
		copy(dst[j], src[j])
		vecmath.CenterMean(dst[j])
	}
	st.f.ldl.solve(dst[:m])
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

var _ sparse.BlockPreconditioner = (*blockSolveState)(nil)

// blockStatePool wraps sync.Pool with typed checkout for blocked states.
type blockStatePool struct {
	p sync.Pool
}

func (bp *blockStatePool) get() *blockSolveState { return bp.p.Get().(*blockSolveState) }
func (bp *blockStatePool) put(st *blockSolveState) {
	st.proj.Inner = nil
	st.x1[0], st.b1[0] = nil, nil
	st.spans = [sparse.MaxBlockWidth]trace.Span{}
	st.activeN = 0
	st.traced = false
	bp.p.Put(st)
}

// SolveBlock runs one blocked preconditioned CG solve of L_G x[j] = b[j]
// for up to sparse.MaxBlockWidth right-hand sides, where sys is G's frozen
// Laplacian operator. Each iteration applies sys once to the whole block
// and the preconditioner once: in the exact regime one blocked sweep pair
// over H's factor, otherwise G's own Jacobi diagonal — so G's operator and
// H's factor are each traversed once per iteration for all columns,
// instead of once per column.
//
// Per-column semantics match Solve exactly: every b[j] is mean-centered
// internally, every solution written into x[j] is mean-zero, and column j's
// arithmetic is bit-identical to an independent Solve of that column (the
// lockstep recurrences are mathematically independent; see sparse.BlockCG,
// and the factor sweeps run each column's operations in a fixed order).
// opts overrides the factorization defaults field-wise for the whole group
// — coalesced requests must share option sets, which the batch scheduler
// guarantees. colCtx optionally carries one context per column: a cancelled
// column is masked out of the block within one iteration and recorded in
// out, without disturbing the remaining columns; ctx cancels the whole
// group. out receives one ColumnResult per column; the returned int is the
// number of (blocked) factor applications, 0 in the Jacobi regime. The
// returned error is reserved for structural failures and whole-group
// cancellation.
//
// Safe for any number of concurrent callers; each call checks a private
// blocked solve state out of the factorization's pool, and the warm path
// allocates nothing.
func (f *Factorization) SolveBlock(ctx context.Context, sys *sparse.LapOperator, xs, bs [][]float64, out []sparse.ColumnResult, colCtx []context.Context, opts solver.Options) (int, error) {
	st := f.bp.get()
	defer f.bp.put(st)
	return f.solveBlock(ctx, st, sys, xs, bs, out, colCtx, opts)
}

// solveBlock is the one body behind Solve and SolveBlock, run on a
// checked-out solve state.
func (f *Factorization) solveBlock(ctx context.Context, st *blockSolveState, sys *sparse.LapOperator, xs, bs [][]float64, out []sparse.ColumnResult, colCtx []context.Context, opts solver.Options) (int, error) {
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

	st.proj.Inner = sys
	var pre sparse.BlockPreconditioner = sys.Jacobi()
	if f.ldl != nil {
		pre = st
	}

	mark := st.ws.Mark()
	defer st.ws.Release(mark)
	rhs := headers(&st.rhs, w)
	for j := 0; j < w; j++ {
		rhs[j] = st.ws.Take()
		copy(rhs[j], bs[j])
		vecmath.CenterMean(rhs[j])
		vecmath.Zero(xs[j])
	}
	err := sparse.BlockCG(ctx, &st.proj, sparse.BlockSpec{
		X: xs, B: rhs, ColCtx: colCtx, Out: out,
	}, pre, st.ws, &st.sc, eff)
	for j := 0; j < w; j++ {
		vecmath.CenterMean(xs[j])
		st.spans[j].SetAttr(trace.AttrIterations, int64(out[j].Iterations))
		st.spans[j].SetAttr(trace.AttrInnerUses, int64(st.applications))
		st.spans[j].End()
	}
	return st.applications, err
}
