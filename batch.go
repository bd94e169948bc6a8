package ingrass

import (
	"context"
	"fmt"
	"time"

	"ingrass/internal/batch"
	"ingrass/internal/sparse"
)

// MaxBlockWidth is the widest multi-RHS block one blocked solve iterates in
// lockstep. SolveBatch and EffectiveResistanceBatch accept any number of
// items and chunk them into blocks of at most this width (and at most
// BatchOptions.MaxBlock) transparently.
const MaxBlockWidth = sparse.MaxBlockWidth

// BatchOptions configures the batched query engine: the scheduler that
// coalesces concurrent same-generation solve and resistance requests into
// blocked multi-RHS executions, and the blocked execution itself. The zero
// value means all defaults.
type BatchOptions struct {
	// Window is how long an open coalescing group waits for companions
	// before executing anyway (default 200µs — far below a warm solve, so
	// under load groups fill to MaxBlock and the window only bounds
	// idle-time latency).
	Window time.Duration
	// MaxBlock is the widest coalesced group (default 8, capped at
	// MaxBlockWidth). Explicit SolveBatch calls chunk to this width too.
	MaxBlock int
	// QueueCap bounds admitted-but-unexecuted scheduler requests; further
	// submitters block until capacity frees or their context expires
	// (default 1024).
	QueueCap int
	// Workers is the number of scheduler executor goroutines (default
	// GOMAXPROCS).
	Workers int
	// CoalesceSingles routes single Service.Solve and EffectiveResistance
	// calls through the coalescing scheduler, so concurrent same-generation
	// requests transparently share blocked executions. Answers are
	// bit-identical to the direct path; the trade is up to Window of added
	// latency on an idle service. `ingrass serve` enables this.
	CoalesceSingles bool
}

func (o BatchOptions) internal() batch.Options {
	mb := o.MaxBlock
	if mb > MaxBlockWidth {
		mb = MaxBlockWidth
	}
	return batch.Options{
		Window:   o.Window,
		MaxBlock: mb,
		QueueCap: o.QueueCap,
		Workers:  o.Workers,
	}
}

// blockWidth is the chunk width explicit batches execute at.
func (s *Service) blockWidth() int {
	w := s.batchOpts.MaxBlock
	if w <= 0 {
		w = 8
	}
	if w > MaxBlockWidth {
		w = MaxBlockWidth
	}
	return w
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
// ctx cancels the whole batch.
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
	w := s.blockWidth()
	out := make([]sparse.ColumnResult, w)
	xs := make([][]float64, 0, w)
	for lo := 0; lo < len(bs); lo += w {
		hi := lo + w
		if hi > len(bs) {
			hi = len(bs)
		}
		xs = xs[:0]
		for i := lo; i < hi; i++ {
			results[i].X = make([]float64, n)
			xs = append(xs, results[i].X)
		}
		bst, err := s.eng.SolveBlock(ctx, snap, xs, bs[lo:hi], out[:hi-lo], opts.internal())
		if err != nil {
			return results, snap.Gen, err
		}
		for i := lo; i < hi; i++ {
			cr := out[i-lo]
			results[i].Stats = SolveStats{
				Iterations:  cr.Iterations,
				Residual:    cr.Residual,
				Converged:   cr.Converged,
				PrecondUses: bst.InnerUses,
				Generation:  snap.Gen,
			}
			results[i].Err = cr.Err
		}
	}
	return results, snap.Gen, nil
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
// individually; u == v pairs report zero resistance without solving.
func (s *Service) EffectiveResistanceBatch(ctx context.Context, pairs []Pair) ([]PairResult, uint64, error) {
	if err := s.readGate(); err != nil {
		return nil, 0, err
	}
	snap := s.eng.Current()
	n := snap.G.NumNodes()
	if len(pairs) == 0 {
		return nil, snap.Gen, fmt.Errorf("ingrass: EffectiveResistanceBatch with no pairs")
	}
	results := make([]PairResult, len(pairs))
	// Pairs needing a solve, by original index.
	todo := make([]int, 0, len(pairs))
	for i, p := range pairs {
		results[i].Pair = p
		switch {
		case p.U < 0 || p.U >= n || p.V < 0 || p.V >= n:
			results[i].Err = fmt.Errorf("ingrass: resistance endpoints (%d, %d) out of range [0, %d)", p.U, p.V, n)
		case p.U == p.V:
			// Zero by definition; no column needed.
		default:
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return results, snap.Gen, nil
	}
	w := s.blockWidth()
	bs := make([][]float64, 0, w)
	xs := make([][]float64, 0, w)
	out := make([]sparse.ColumnResult, w)
	for lo := 0; lo < len(todo); lo += w {
		hi := lo + w
		if hi > len(todo) {
			hi = len(todo)
		}
		bs, xs = bs[:0], xs[:0]
		for _, i := range todo[lo:hi] {
			b := make([]float64, n)
			b[pairs[i].U] = 1
			b[pairs[i].V] = -1
			bs = append(bs, b)
			xs = append(xs, make([]float64, n))
		}
		if _, err := s.eng.SolveBlock(ctx, snap, xs, bs, out[:hi-lo], SolveOptions{}.internal()); err != nil {
			return results, snap.Gen, err
		}
		for k, i := range todo[lo:hi] {
			if cr := out[k]; cr.Err != nil {
				results[i].Err = cr.Err
			} else {
				results[i].Resistance = xs[k][pairs[i].U] - xs[k][pairs[i].V]
			}
		}
	}
	return results, snap.Gen, nil
}

// NumNodes returns the node count of the currently served snapshot (node
// identity is append-free in this service, so the count is stable per
// process lifetime and usable for request validation).
func (s *Service) NumNodes() int { return s.eng.Current().G.NumNodes() }
