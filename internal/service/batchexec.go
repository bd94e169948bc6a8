package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ingrass/internal/batch"
	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// The engine side of the batched query engine: the coalescing scheduler
// (internal/batch) keyed by snapshot generation, and the group executor
// that turns each group — a mix of solve and effective-resistance
// requests against one snapshot — into a single blocked multi-RHS solve.

// groupScratch is the per-execution scratch a group needs beyond the pooled
// solve state: column headers, per-column contexts, and per-column results.
// Pooled so steady-state group execution stays allocation-light.
type groupScratch struct {
	xs, bs [][]float64
	cctx   []context.Context
	out    []sparse.ColumnResult
	spans  []trace.Span
}

func (gs *groupScratch) ensure(w int) {
	if cap(gs.out) < w {
		gs.xs = make([][]float64, w)
		gs.bs = make([][]float64, w)
		gs.cctx = make([]context.Context, w)
		gs.out = make([]sparse.ColumnResult, w)
		gs.spans = make([]trace.Span, w)
	}
	gs.xs, gs.bs = gs.xs[:w], gs.bs[:w]
	gs.cctx, gs.out = gs.cctx[:w], gs.out[:w]
	gs.spans = gs.spans[:w]
}

var groupScratchPool = sync.Pool{New: func() any { return &groupScratch{} }}

// execGroup runs one sealed group as a blocked solve against its pinned
// snapshot. Solve requests bring their own buffers; resistance requests
// draw basis right-hand sides and solution columns from the snapshot's
// pooled workspaces. All requests of a group share one option set (the
// scheduler keys groups by generation and option set), and each request's
// context rides in as its column's context.
func (e *Engine) execGroup(snap *Snapshot, reqs []*batch.Req) {
	w := len(reqs)
	gs := groupScratchPool.Get().(*groupScratch)
	defer groupScratchPool.Put(gs)
	gs.ensure(w)

	var ws *solver.Workspace
	var pool *solver.Pool
	defer func() {
		if ws != nil {
			pool.Put(ws)
		}
	}()
	// Traced requests get a batch-group span backdated to their Submit
	// time, so the span covers queue wait and the blocked execution; the
	// column's context is re-wrapped so the outer-solve span nests under
	// it. Untraced requests (the common case when sampling is off) skip
	// all of this — FromContext on their context yields the inert Span.
	execStart := time.Now()
	for i, r := range reqs {
		gs.cctx[i] = r.Ctx
		gs.spans[i] = trace.Span{}
		if parent := trace.FromContext(r.Ctx); parent.Tracing() {
			g := parent.StartChildSince(trace.SpanBatchGroup, r.SubmittedAt())
			g.SetAttr(trace.AttrWidth, int64(w))
			g.SetAttr(trace.AttrQueueWaitNS, int64(execStart.Sub(r.SubmittedAt())))
			g.SetAttr(trace.AttrGeneration, int64(snap.Gen))
			gs.spans[i] = g
			gs.cctx[i] = trace.NewContext(r.Ctx, g)
		}
		if r.Kind == batch.KindPair {
			if ws == nil {
				if err := snap.ensureFactorized(); err != nil {
					for _, rq := range reqs {
						rq.Err = err
					}
					return
				}
				pool = snap.gop.Workspaces()
				ws = pool.Get()
			}
			b := ws.Take()
			vecmath.Basis(b, r.U, r.V)
			gs.bs[i] = b
			gs.xs[i] = ws.Take()
			snap.stats.resistQueries.Add(1)
		} else {
			gs.xs[i], gs.bs[i] = r.X, r.B
		}
	}

	// The group context is deliberately background: individual cancellations
	// mask their own column, and a group must outlive any one requester.
	bst, err := snap.SolveBlockInto(context.Background(), gs.xs, gs.bs, gs.out, gs.cctx, reqs[0].Opts)
	for i := range reqs {
		gs.spans[i].End()
	}
	for i, r := range reqs {
		if err != nil {
			r.Err = err
			continue
		}
		cr := gs.out[i]
		r.Iterations = cr.Iterations
		r.Residual = cr.Residual
		r.Converged = cr.Converged
		r.InnerUses = bst.InnerUses
		r.Err = cr.Err
		if r.Kind == batch.KindPair && cr.Err == nil {
			r.Resistance = gs.xs[i][r.U] - gs.xs[i][r.V]
		}
	}
}

// submitErr classifies a scheduler admission failure: a request whose
// own context expired while blocked on the admission queue is a
// cancellation (HTTP 499/408 via solver.ErrCancelled), exactly as if it
// had been cancelled mid-solve, and a closed scheduler is a closed engine.
func submitErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return solver.Cancelled(err)
	}
	return closedErr(err)
}

// closedErr reports a request the scheduler failed at Close as ErrClosed,
// the error every engine call issued after Close returns.
func closedErr(err error) error {
	if errors.Is(err, batch.ErrClosed) {
		return ErrClosed
	}
	return err
}

// SolveCoalesced submits one solve against snap through the coalescing
// scheduler and waits: concurrent solves against the same generation with
// the same option set share one blocked multi-RHS execution (the scheduler
// keys groups by both). The result is bit-identical to snap.SolveInto with
// the same options. If ctx expires while the request is queued or in
// flight, the solve's column is masked within one iteration; x must then be
// considered poisoned until the request's group drains (the caller-provided
// buffer may still be written briefly).
func (e *Engine) SolveCoalesced(ctx context.Context, snap *Snapshot, x, b []float64, opts solver.Options) (SolveStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := snap.checkColumn(x, b); err != nil {
		return SolveStats{}, err
	}
	r := &batch.Req{Ctx: ctx, Kind: batch.KindSolve, X: x, B: b, Opts: opts}
	if err := e.sched.Submit(ctx, snap.Gen, snap, r); err != nil {
		return SolveStats{}, submitErr(err)
	}
	if err := r.Wait(ctx); err != nil {
		return SolveStats{Generation: snap.Gen}, solver.Cancelled(err)
	}
	return ReqStats(r), closedErr(r.Err)
}

// ResistanceCoalesced submits one effective-resistance query through the
// scheduler; concurrent same-generation queries (and solves) share one
// blocked execution.
func (e *Engine) ResistanceCoalesced(ctx context.Context, snap *Snapshot, u, v int) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.closed.Load() {
		return 0, ErrClosed // before the u == v shortcut
	}
	r := &batch.Req{Ctx: ctx, Kind: batch.KindPair, U: u, V: v}
	if !snap.pairNeedsSolve(r) {
		return 0, r.Err
	}
	if err := e.sched.Submit(ctx, snap.Gen, snap, r); err != nil {
		return 0, submitErr(err)
	}
	if err := r.Wait(ctx); err != nil {
		return 0, solver.Cancelled(err)
	}
	return r.Resistance, closedErr(r.Err)
}

// RunBatch executes one caller's requests against snap as sealed groups of
// at most MaxBlock columns (see batch.Scheduler.SubmitBatch), so k columns
// cost ceil(k/MaxBlock) blocked executions however busy the service is.
// Every request rides with ctx as its column context. Pair requests are
// validated first: an invalid one gets its Err and a u == v one resolves
// to zero, neither taking a column. Per-request outcomes land in each
// request's result fields.
//
// RunBatch returns only once no executor can still write a request's
// buffers, even when ctx expires: admitted columns are masked within one
// iteration and waited out. A ctx that expired (before admission or during
// execution) fails the call with an error matching solver.ErrCancelled.
func (e *Engine) RunBatch(ctx context.Context, snap *Snapshot, reqs []*batch.Req) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.closed.Load() {
		return ErrClosed
	}
	cols := make([]*batch.Req, 0, len(reqs))
	for _, r := range reqs {
		r.Ctx = ctx
		if r.Kind == batch.KindPair && !snap.pairNeedsSolve(r) {
			continue
		}
		cols = append(cols, r)
	}
	n, err := e.sched.SubmitBatch(ctx, snap.Gen, snap, cols)
	for _, r := range cols[:n] {
		<-r.Done()
		r.Err = closedErr(r.Err)
	}
	if err != nil {
		return submitErr(err)
	}
	if err := ctx.Err(); err != nil {
		return solver.Cancelled(err)
	}
	return nil
}

// ReqStats reports a completed solve request's column as SolveStats.
func ReqStats(r *batch.Req) SolveStats {
	return SolveStats{
		Generation:  r.Gen(),
		Iterations:  r.Iterations,
		Residual:    r.Residual,
		Converged:   r.Converged,
		PrecondUses: r.InnerUses,
	}
}

// pairNeedsSolve validates a resistance request against s and reports
// whether it needs a column. Invalid endpoints set r.Err; u == v is zero by
// definition and counts as a query at once.
func (s *Snapshot) pairNeedsSolve(r *batch.Req) bool {
	n := s.G.NumNodes()
	if r.U < 0 || r.U >= n || r.V < 0 || r.V >= n {
		r.Err = fmt.Errorf("service: resistance endpoints (%d, %d) out of range [0, %d)", r.U, r.V, n)
		return false
	}
	if r.U == r.V {
		s.stats.resistQueries.Add(1)
		return false
	}
	return true
}
