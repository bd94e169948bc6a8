package ingrass

import (
	"context"
	"fmt"
	"time"

	"ingrass/internal/batch"
	"ingrass/internal/service"
	"ingrass/internal/sparse"
)

// MaxBlockWidth is the widest multi-RHS block one blocked solve iterates in
// lockstep. SolveBatch and EffectiveResistanceBatch accept any number of
// items and split them into blocks of at most this width (and at most
// BatchOptions.MaxBlock) transparently.
const MaxBlockWidth = sparse.MaxBlockWidth

// BatchOptions configures the batched query engine: the scheduler every
// Solve, EffectiveResistance, SolveBatch and EffectiveResistanceBatch call
// runs through, which coalesces concurrent same-generation requests into
// blocked multi-RHS executions. The zero value means all defaults.
type BatchOptions struct {
	// Deprecated: Window is ignored. A coalescing group waits for no timer:
	// it takes every same-generation request that queues while the
	// executors are busy and runs as soon as one is free.
	Window time.Duration
	// MaxBlock is the widest blocked execution (default 8, capped at
	// MaxBlockWidth and at QueueCap). Explicit batches split into blocks of
	// this width too.
	MaxBlock int
	// QueueCap bounds admitted-but-unexecuted columns; further submitters
	// block until capacity frees or their context expires (default 1024).
	// A batch larger than QueueCap streams through block by block.
	QueueCap int
	// Workers is the number of scheduler executor goroutines (default
	// GOMAXPROCS).
	Workers int
	// Deprecated: CoalesceSingles is ignored. Single Solve and
	// EffectiveResistance calls always ride the coalescing scheduler;
	// answers are bit-identical to an independent solve, and an idle
	// service adds no wait.
	CoalesceSingles bool
}

func (o BatchOptions) internal() batch.Options {
	return batch.Options{
		MaxBlock: min(o.MaxBlock, MaxBlockWidth),
		QueueCap: o.QueueCap,
		Workers:  o.Workers,
	}
}

// BatchSolveResult is one right-hand side's outcome of a SolveBatch call.
type BatchSolveResult struct {
	// X is the solution column (mean-zero). It is valid even when Err is
	// ErrNoConvergence (the best iterate found).
	X []float64 `json:"x"`
	// Stats reports the column's solve.
	Stats SolveStats `json:"stats"`
	// Err is the column's terminal error, nil on convergence. One column
	// failing never aborts its siblings.
	Err error `json:"-"`
}

// SolveBatch solves L_G x_i = b_i for every right-hand side against one
// snapshot generation, executing the batch as blocked multi-RHS solves that
// traverse the graph and sparsifier structures once per iteration for a
// whole block, so a batch costs less than as many independent solves
// (BenchmarkLapMulMulti times the blocked product). Each column's answer
// is bit-identical to an independent Solve of that b_i with the same
// options.
//
// All right-hand sides share one option set and one generation (the current
// snapshot at call time); per-column outcomes are reported independently.
// ctx cancels the whole batch: the call then fails with an error matching
// ErrCancelled, and returns only once no column is still being written.
func (s *Service) SolveBatch(ctx context.Context, bs [][]float64, opts SolveOptions) ([]BatchSolveResult, uint64, error) {
	if err := s.readGate(); err != nil {
		return nil, 0, err
	}
	snap := s.eng.Current()
	n := snap.G.NumNodes()
	if len(bs) == 0 {
		return nil, snap.Gen, fmt.Errorf("ingrass: SolveBatch with no right-hand sides")
	}
	for i, b := range bs {
		if len(b) != n {
			return nil, snap.Gen, fmt.Errorf("ingrass: SolveBatch rhs %d length %d != %d nodes", i, len(b), n)
		}
	}
	results := make([]BatchSolveResult, len(bs))
	cols := make([]batch.Req, len(bs))
	reqs := make([]*batch.Req, len(bs))
	for i, b := range bs {
		results[i].X = make([]float64, n)
		cols[i] = batch.Req{Kind: batch.KindSolve, X: results[i].X, B: b, Opts: opts.internal()}
		reqs[i] = &cols[i]
	}
	err := s.eng.RunBatch(ctx, snap, reqs)
	for i, r := range reqs {
		results[i].Stats = fromInternalSolveStats(service.ReqStats(r))
		results[i].Err = r.Err
	}
	return results, snap.Gen, err
}

// Pair is one effective-resistance query endpoint pair.
type Pair struct {
	U int `json:"u"`
	V int `json:"v"`
}

// PairResult is one pair's outcome of an EffectiveResistanceBatch call.
type PairResult struct {
	Pair
	Resistance float64 `json:"resistance"`
	// Err is the pair's terminal error (validation or solve), nil on
	// success. One pair failing never aborts its siblings.
	Err error `json:"-"`
}

// EffectiveResistanceBatch computes the effective resistance of every pair
// against one snapshot generation, sharing blocked solves across the sweep:
// k pairs cost ceil(k / MaxBlock) blocked solves instead of k full solves,
// which is the amortization a resistance sweep (the inGRASS edge-importance
// primitive) wants. Invalid pairs (endpoints out of range) fail
// individually; u == v pairs report zero resistance without solving. ctx
// cancels the sweep as it does a SolveBatch.
func (s *Service) EffectiveResistanceBatch(ctx context.Context, pairs []Pair) ([]PairResult, uint64, error) {
	if err := s.readGate(); err != nil {
		return nil, 0, err
	}
	snap := s.eng.Current()
	if len(pairs) == 0 {
		return nil, snap.Gen, fmt.Errorf("ingrass: EffectiveResistanceBatch with no pairs")
	}
	cols := make([]batch.Req, len(pairs))
	reqs := make([]*batch.Req, len(pairs))
	for i, p := range pairs {
		cols[i] = batch.Req{Kind: batch.KindPair, U: p.U, V: p.V}
		reqs[i] = &cols[i]
	}
	err := s.eng.RunBatch(ctx, snap, reqs)
	results := make([]PairResult, len(pairs))
	for i, r := range reqs {
		results[i] = PairResult{Pair: pairs[i], Resistance: r.Resistance, Err: r.Err}
	}
	return results, snap.Gen, err
}

// NumNodes returns the node count of the currently served snapshot (node
// identity is append-free in this service, so the count is stable per
// process lifetime and usable for request validation).
func (s *Service) NumNodes() int { return s.eng.Current().G.NumNodes() }
