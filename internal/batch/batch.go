// Package batch is the query-execution scheduler of the batched query
// engine: it admits concurrent solve and effective-resistance requests into
// a bounded queue, coalesces requests that target the same snapshot
// generation, and hands each group to an executor that runs it as one
// blocked multi-RHS solve (see sparse.BlockCG and service's group executor).
//
// Coalescing is group commit, with no timer: a group is queued for the
// executors the moment it opens, same-key requests join it while it waits,
// and it seals when an executor picks it up (or at MaxBlock). An idle
// service therefore runs a lone request at once, and a busy one batches
// whatever queued while the previous groups ran. An explicit batch
// (SubmitBatch) skips the open groups: it queues its own sealed groups of
// MaxBlock columns, so its cost does not depend on concurrent traffic.
//
// The scheduler is generic over the execution target T (the service layer
// instantiates it with its *Snapshot), which keeps the grouping machinery
// free of any dependency on the serving layer above it. Two invariants the
// grouping maintains:
//
//   - A coalesced group never spans generations: groups are keyed by the
//     generation the submitter captured, so requests racing a write-batch
//     publication land in distinct groups and each executes against exactly
//     the snapshot its caller saw.
//   - A cancelled request masks its column without aborting its group: the
//     request's context rides into the blocked solve as a per-column
//     context, and the scheduler completes the request's future
//     independently of its groupmates.
//
// Groups are keyed by (generation, option set): coalesced columns share
// one option set, so requests only ever share a block with peers that ask
// for identical solver knobs — silently dropping a custom tolerance would
// be worse than losing the batching win on a rare request. The common case
// (every client sending the same tolerance) coalesces fully.
package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ingrass/internal/solver"
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("batch: scheduler closed")

// Options configures a Scheduler. The zero value means all defaults.
type Options struct {
	// MaxBlock seals a group at this many coalesced right-hand sides.
	// Default 8, at most QueueCap; the executor's kernels cap it
	// (sparse.MaxBlockWidth).
	MaxBlock int
	// QueueCap bounds admitted-but-unexecuted requests; further submitters
	// block (backpressure) until capacity frees or their context expires.
	// Default 1024.
	QueueCap int
	// Workers is the number of executor goroutines draining queued groups.
	// Default GOMAXPROCS.
	Workers int
	// OnGroup, when non-nil, is invoked once per executed group with its
	// width in right-hand sides — the hook the serving layer uses to feed
	// its block-fill histogram. It runs on executor goroutines and must be
	// cheap and non-blocking.
	OnGroup func(width int)
}

func (o Options) withDefaults() Options {
	if o.MaxBlock <= 0 {
		o.MaxBlock = 8
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	// Every column of a queued group holds an admission slot.
	o.MaxBlock = min(o.MaxBlock, o.QueueCap)
	return o
}

// Kind discriminates what a request's column computes.
type Kind uint8

const (
	// KindSolve is a Laplacian solve: B is the right-hand side and the
	// solution lands in X.
	KindSolve Kind = iota
	// KindPair is an effective-resistance query: the executor builds the
	// basis right-hand side for (U, V) from pooled scratch and reads the
	// resistance off the solved column.
	KindPair
)

// Req is one column of a coalesced blocked solve: the request inputs, the
// per-request context (masking its column on cancellation), and the result
// fields the executor fills before the scheduler completes the future.
// Create with fields set, Submit it, then Wait; result fields must not be
// read until Wait (or Done) reports completion.
type Req struct {
	Ctx  context.Context
	Kind Kind
	X, B []float64 // KindSolve: solution (written in place) and rhs
	U, V int       // KindPair: endpoints
	Opts solver.Options

	// Results, owned by the executor until the future completes.
	Iterations int
	Residual   float64
	Converged  bool
	InnerUses  int
	Resistance float64
	Err        error

	gen       uint64
	done      chan struct{}
	submitted time.Time
}

// Done is closed once the request's group has executed (or the request was
// rejected).
func (r *Req) Done() <-chan struct{} { return r.done }

// Gen returns the generation the request executed against.
func (r *Req) Gen() uint64 { return r.gen }

// SubmittedAt returns when the request was admitted by Submit (zero before
// admission). The executor uses it to backdate a batch-group trace span so
// the span covers queue wait as well as execution.
func (r *Req) SubmittedAt() time.Time { return r.submitted }

// Wait blocks until the request completes or ctx is cancelled. A nil error
// means the result fields are safe to read (including a per-column Err);
// ctx.Err() means the caller abandoned the wait and must NOT touch the
// request's buffers — its column is still in flight until Done closes.
func (r *Req) Wait(ctx context.Context) error {
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// groupKey identifies a coalescing unit: requests must agree on both the
// snapshot generation and the full solver option set to share a block.
type groupKey struct {
	gen  uint64
	opts solver.Options
}

// group is one coalescing unit: same-key requests executed together. It is
// open (in Scheduler.open, accepting companions) until an executor takes it
// or it reaches MaxBlock.
type group[T any] struct {
	target T
	key    groupKey
	reqs   []*Req
}

// Runner executes one sealed group against its target, filling each
// request's result fields. The scheduler completes the futures afterwards.
type Runner[T any] func(target T, reqs []*Req)

// Stats are the scheduler's monitoring counters.
type Stats struct {
	batches   atomic.Uint64 // blocked groups executed
	columns   atomic.Uint64 // right-hand sides across all groups
	coalesced atomic.Uint64 // requests that shared a group with others
	depth     atomic.Int64  // admitted, not yet executed
}

// StatsView is a plain copy of the counters for reporting.
type StatsView struct {
	// BatchesFormed counts executed blocked groups; RequestsCoalesced the
	// requests that rode in a group of width >= 2. ColumnsTotal /
	// BatchesFormed is the average block fill.
	BatchesFormed     uint64
	ColumnsTotal      uint64
	RequestsCoalesced uint64
	QueueDepth        int64
}

// AvgBlockFill returns the mean group width (0 before any group ran).
func (v StatsView) AvgBlockFill() float64 {
	if v.BatchesFormed == 0 {
		return 0
	}
	return float64(v.ColumnsTotal) / float64(v.BatchesFormed)
}

// Scheduler coalesces same-generation requests into blocked groups and
// drives them through a fixed set of executor goroutines. Safe for any
// number of concurrent submitters.
type Scheduler[T any] struct {
	opts Options
	run  Runner[T]

	mu   sync.Mutex
	open map[groupKey]*group[T]

	// execQ holds every group not yet taken by an executor, in opening
	// order. Each queued group holds at least one admission slot, so
	// QueueCap bounds its length and a send under mu never blocks.
	execQ chan *group[T]
	sem   chan struct{}
	// admitMu (a one-slot channel, so waits can honour ctx) serializes
	// multi-slot admissions.
	admitMu chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	stats   Stats
}

// New starts a scheduler whose groups are executed by run.
func New[T any](opts Options, run Runner[T]) *Scheduler[T] {
	s := &Scheduler[T]{
		opts: opts.withDefaults(),
		run:  run,
		open: make(map[groupKey]*group[T]),
		quit: make(chan struct{}),
	}
	s.execQ = make(chan *group[T], s.opts.QueueCap)
	s.sem = make(chan struct{}, s.opts.QueueCap)
	s.admitMu = make(chan struct{}, 1)
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.exec()
	}
	return s
}

// Submit admits one request against the given generation/target; it joins
// the open group for (gen, r.Opts) or opens and queues one. Submit blocks
// while the admission queue is full; ctx (the request's own context) bounds
// that wait.
func (s *Scheduler[T]) Submit(ctx context.Context, gen uint64, target T, r *Req) error {
	if err := s.admit(ctx, 1); err != nil {
		return err
	}
	s.stamp(gen, r)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		s.admitRelease(1)
		return ErrClosed
	}
	key := groupKey{gen: gen, opts: r.Opts}
	g := s.open[key]
	if g == nil {
		g = &group[T]{target: target, key: key}
		s.open[key] = g
		s.execQ <- g
	}
	g.reqs = append(g.reqs, r)
	if len(g.reqs) >= s.opts.MaxBlock {
		delete(s.open, key)
	}
	return nil
}

// SubmitBatch admits one caller's requests against the given
// generation/target as sealed groups: consecutive runs of at most MaxBlock
// requests that no other submitter joins, so k requests form exactly
// ceil(k/MaxBlock) groups. All requests must share one option set. Each
// group takes its admission slots and is then queued under one lock hold,
// so a batch larger than QueueCap streams through the executors instead of
// waiting for room it can never get. It returns how many requests were
// admitted: after an error (ctx expiry while waiting for admission, or
// Close) reqs[n:] were never queued and only reqs[:n] complete.
func (s *Scheduler[T]) SubmitBatch(ctx context.Context, gen uint64, target T, reqs []*Req) (int, error) {
	n := 0
	for n < len(reqs) {
		w := min(s.opts.MaxBlock, len(reqs)-n)
		if err := s.admit(ctx, w); err != nil {
			return n, err
		}
		g := &group[T]{target: target, key: groupKey{gen: gen, opts: reqs[n].Opts}, reqs: reqs[n : n+w : n+w]}
		s.stamp(gen, g.reqs...)
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			s.admitRelease(w)
			return n, ErrClosed
		}
		s.execQ <- g
		s.mu.Unlock()
		n += w
	}
	return n, nil
}

// admit takes w admission slots for one group, blocking while the queue is
// full. Groups wider than one slot take theirs under admitMu, so two
// batches can never each hold part of what the other waits for: every
// other slot belongs to a group that is queued or about to be, and frees
// once an executor takes it.
func (s *Scheduler[T]) admit(ctx context.Context, w int) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if w > 1 {
		select {
		case s.admitMu <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.quit:
			return ErrClosed
		}
		defer func() { <-s.admitMu }()
	}
	for i := 0; i < w; i++ {
		select {
		case s.sem <- struct{}{}:
			continue
		default:
		}
		var err error
		select {
		case s.sem <- struct{}{}:
			continue
		case <-ctx.Done():
			err = ctx.Err()
		case <-s.quit:
			err = ErrClosed
		}
		for ; i > 0; i-- {
			<-s.sem
		}
		return err
	}
	return nil
}

// stamp marks admitted requests with their generation and admission time
// and counts them in the queue depth.
func (s *Scheduler[T]) stamp(gen uint64, reqs ...*Req) {
	now := time.Now()
	for _, r := range reqs {
		r.gen = gen
		r.done = make(chan struct{})
		r.submitted = now
	}
	s.stats.depth.Add(int64(len(reqs)))
}

// exec is one executor goroutine: run groups until shutdown.
func (s *Scheduler[T]) exec() {
	defer s.wg.Done()
	for {
		select {
		case g := <-s.execQ:
			s.runGroup(g)
		case <-s.quit:
			return
		}
	}
}

// runGroup seals one group, executes it and completes its futures. A group
// taken after Close began is failed instead: it has not started executing.
func (s *Scheduler[T]) runGroup(g *group[T]) {
	s.mu.Lock()
	if s.open[g.key] == g {
		delete(s.open, g.key)
	}
	s.mu.Unlock()
	if s.closed.Load() {
		s.fail(g, ErrClosed)
		return
	}
	w := len(g.reqs)
	s.admitRelease(w)
	s.stats.batches.Add(1)
	s.stats.columns.Add(uint64(w))
	if w > 1 {
		s.stats.coalesced.Add(uint64(w))
	}
	if s.opts.OnGroup != nil {
		s.opts.OnGroup(w)
	}
	s.run(g.target, g.reqs)
	for _, r := range g.reqs {
		close(r.done)
	}
}

// admitRelease returns n admission slots.
func (s *Scheduler[T]) admitRelease(n int) {
	s.stats.depth.Add(int64(-n))
	for i := 0; i < n; i++ {
		<-s.sem
	}
}

// fail completes every request of a group with err.
func (s *Scheduler[T]) fail(g *group[T], err error) {
	s.admitRelease(len(g.reqs))
	for _, r := range g.reqs {
		r.Err = err
		close(r.done)
	}
}

// Stats snapshots the counters.
func (s *Scheduler[T]) Stats() StatsView {
	return StatsView{
		BatchesFormed:     s.stats.batches.Load(),
		ColumnsTotal:      s.stats.columns.Load(),
		RequestsCoalesced: s.stats.coalesced.Load(),
		QueueDepth:        s.stats.depth.Load(),
	}
}

// Close stops the executors and fails every request that has not started
// executing. Groups already inside a Runner complete normally.
func (s *Scheduler[T]) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.quit)
	s.wg.Wait()
	// Every group that no executor took is still in execQ. Holding mu waits
	// out a Submit that saw the scheduler open; later ones see it closed.
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		select {
		case g := <-s.execQ:
			s.fail(g, ErrClosed)
		default:
			return
		}
	}
}
