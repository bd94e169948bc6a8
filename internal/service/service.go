// Package service turns the single-threaded inGRASS sparsifier (internal/
// core) into a long-lived concurrent engine: many readers issue Laplacian
// solves, effective-resistance queries, condition-number checks, and
// sparsifier exports against immutable copy-on-write snapshots, while one
// writer goroutine drains a coalescing batcher that applies insert/delete
// requests in batches (each batch is whatever queued while the previous one
// was applied, capped by edge count), bumps the snapshot generation, and
// completes futures back to the callers.
//
// The concurrency architecture, in one paragraph: core.Sparsifier is the
// only mutable state and is touched exclusively by the batcher goroutine
// under Engine.mu. After each applied batch the engine takes O(1)
// copy-on-write snapshots of G and H (internal/graph.Snapshot) and
// publishes them through a registry; readers grab the current Snapshot and
// run entirely against it, so a read is isolated from every later write.
// The per-snapshot preconditioner factorization (internal/precond.
// Factorize) is built lazily once per generation and shared by all of that
// generation's solves — repeated solves on an unchanged graph skip the
// O(N+E) setup entirely, which the PrecondBuilds/PrecondReuses counters
// make observable.
//
// When Options.Store is set, the engine is durable: every applied batch is
// appended to the write-ahead log (internal/wal) *before* its generation is
// published to readers or its futures complete, Checkpoint persists the
// full state from copy-on-write snapshots without stalling writers,
// and Recover rebuilds an engine from checkpoint ⊕ WAL replay so a restart
// resumes at the exact pre-crash generation.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ingrass/internal/batch"
	"ingrass/internal/core"
	"ingrass/internal/graph"
	"ingrass/internal/obs"
	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
	"ingrass/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// MaxBatch flushes the write batch once it holds this many edges.
	// Default 128.
	MaxBatch int
	// QueueCapacity bounds enqueued-but-unflushed write requests; further
	// writers block (backpressure). Default 1024.
	QueueCapacity int
	// Retain is how many recent snapshots stay addressable by generation.
	// Default 4.
	Retain int
	// Solver is the engine-level solve default set: it configures every
	// per-snapshot preconditioner factorization (inner tolerances, worker
	// counts) and is the base that per-request options override.
	Solver solver.Options
	// Store, when non-nil, makes the engine durable: each applied batch is
	// appended to the store's WAL before its generation is published. The
	// engine does not own the store; the caller closes it after Close.
	Store *wal.Store
	// InitialGeneration is the generation the engine starts serving at
	// (non-zero after recovery, so generation numbers stay aligned with the
	// checkpoint and WAL records on disk).
	InitialGeneration uint64
	// Batch configures the batched query engine: the scheduler that
	// coalesces concurrent same-generation solve and resistance requests
	// into blocked multi-RHS executions (block size, admission queue,
	// executor workers).
	Batch batch.Options
	// Obs, when non-nil, is the metrics registry the engine exposes itself
	// through: the atomic counters are bridged as CounterFunc/GaugeFunc
	// reads and the solve-latency / iteration / block-fill histograms are
	// created in it (see metrics.go). Nil disables exposition; the hot
	// paths still record through nil-safe histogram handles at the cost of
	// a few predicted branches.
	Obs *obs.Registry
	// Maintenance configures the closed-loop maintenance controller
	// (maintenance.go). The zero value leaves the controller off; manual
	// Resparsify calls still work.
	Maintenance MaintenanceOptions
	// ReadOnly builds a replica engine (see replica.go): no batcher
	// goroutine, no maintenance loop, and every write path returns
	// ErrReadOnly. State advances only through ApplyRecord, which replays
	// primary WAL records through the bit-exact recovery code path.
	ReadOnly bool
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 128
	}
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 1024
	}
	if o.Retain <= 0 {
		o.Retain = 4
	}
	o.Maintenance = o.Maintenance.withDefaults()
	return o
}

// Engine is the concurrent sparsifier service around one core.Sparsifier.
// Create it with New, write through Add/Delete (or their Async variants),
// read through Current()/At() snapshots, and Close it when done.
type Engine struct {
	opts  Options
	sp    *core.Sparsifier
	mu    sync.Mutex // guards sp and snapshot publication
	reg   *Registry
	stats Stats
	sched *batch.Scheduler[*Snapshot]

	// Durability state. walBroken flips on the first failed WAL append and
	// stays set — a log with a gap must not accept later records, or replay
	// would reconstruct the wrong graph — until a successful Checkpoint
	// captures the full state and thereby covers the gap. It is read by the
	// batcher under mu and cleared by Checkpoint under mu.
	walBroken atomic.Bool
	// ckptMu serializes checkpoints (the encode + file write can be long;
	// two interleaved checkpoints would just waste I/O).
	ckptMu sync.Mutex

	// Maintenance state: maintFlight is the single-rebuild-in-flight latch,
	// maintMon the controller's cross-evaluation memory, and churnBase /
	// basisEdges anchor the churn trigger at the current setup basis.
	maintFlight atomic.Bool
	maintMon    maintMonitor
	churnBase   atomic.Uint64
	basisEdges  atomic.Uint64

	// counted is sp's decision counts as of the newest snapshotLocked;
	// guarded by mu.
	counted [len(decisionNames)]int

	reqs chan *request
	quit chan struct{}
	wg   sync.WaitGroup
	// sendMu serializes enqueues against Close: Close takes the write side
	// once, after which no request can slip into the channel behind the
	// batcher's final drain and strand its future.
	sendMu sync.RWMutex
	closed atomic.Bool
}

// Durability errors.
var (
	// ErrNotDurable accompanies an otherwise-successful write whose WAL
	// append failed: the write IS applied and visible to readers, but it
	// would not survive a crash until the next successful Checkpoint. It is
	// returned alongside a valid WriteResult.
	ErrNotDurable = errors.New("service: write applied but not durable (WAL append failed)")
	// ErrNoStore reports a durability operation on an engine that was
	// built without a wal.Store.
	ErrNoStore = errors.New("service: engine has no durable store")
)

// errNotDurableWrap tags a WAL append failure with the ErrNotDurable class.
func errNotDurableWrap(err error) error {
	return fmt.Errorf("%w: %v", ErrNotDurable, err)
}

// decisionNames are the outcomes ingrass_filter_decisions_total counts.
var decisionNames = [...]string{"included", "merged", "redistributed", "deleted", "promoted"}

// decisionCounts returns s's decision counters in decisionNames order.
func decisionCounts(s core.Stats) [len(decisionNames)]int {
	return [...]int{s.Included, s.Merged, s.Redistributed, s.Deleted, s.Promoted}
}

// snapshotLocked captures generation gen of the sparsifier for
// publication and records what the exposition reports about it: the
// decisions made since the previous capture, the filter level and the
// density. The caller holds mu (or owns e exclusively, as New does).
func (e *Engine) snapshotLocked(gen uint64) *Snapshot {
	now := decisionCounts(e.sp.Stats())
	for i, n := range now {
		if d := n - e.counted[i]; d > 0 {
			e.stats.decisions[i].Add(uint64(d))
		}
	}
	e.counted = now
	e.stats.filterLevel.Store(int64(e.sp.FilterLevel()))
	e.stats.density.Store(math.Float64bits(e.sp.Density()))
	return newSnapshot(gen, e.sp.G.Snapshot(), e.sp.H.Snapshot(), &e.stats, e.opts.Solver)
}

// New wraps an already-set-up sparsifier in an engine and publishes the
// generation-0 snapshot. The engine takes ownership of sp: the caller must
// not touch it (or its graphs) afterwards.
func New(sp *core.Sparsifier, opts Options) *Engine {
	e := &Engine{
		opts: opts.withDefaults(),
		sp:   sp,
		quit: make(chan struct{}),
	}
	e.reqs = make(chan *request, e.opts.QueueCapacity)
	e.reg = NewRegistry(e.opts.Retain)
	e.stats.generation.Store(e.opts.InitialGeneration)
	e.stats.lastCheckpoint.Store(e.opts.InitialGeneration)
	e.counted = decisionCounts(sp.Stats())
	e.reg.Publish(e.snapshotLocked(e.opts.InitialGeneration))
	if e.opts.Obs != nil {
		// Histograms first: the block-fill hook rides in Batch options, which
		// batch.New copies by value. The counter bridges come after the
		// scheduler exists because they sample it.
		e.initHistograms(e.opts.Obs)
	}
	e.sched = batch.New(e.opts.Batch, e.execGroup)
	if e.opts.Obs != nil {
		e.registerBridges(e.opts.Obs)
	}
	// Anchor the maintenance signals at the initial basis.
	e.basisEdges.Store(uint64(sp.H.NumEdges()))
	e.stats.maintTargetCond.Store(math.Float64bits(sp.Config().TargetCond))
	e.stats.maintState.Store(int32(e.idleMaintState()))
	if !e.opts.ReadOnly {
		e.wg.Add(1)
		go e.run()
		if e.opts.Maintenance.Enabled {
			e.wg.Add(1)
			go e.maintLoop()
		}
	}
	return e
}

// Recover rebuilds an engine from a durable store: it loads the newest
// checkpoint, replays the WAL records past it through the sparsifier
// (identical code path to the original applications, so the reconstruction
// is bit-exact), and starts the engine at the recovered generation with the
// store attached for further logging. The caller still owns the store.
func Recover(store *wal.Store, opts Options) (*Engine, error) {
	sp, gen, err := store.RestoreState()
	if err != nil {
		return nil, err
	}
	opts.Store = store
	opts.InitialGeneration = gen
	return New(sp, opts), nil
}

// Checkpoint persists the engine's full current state to the store and
// prunes the WAL records it covers. The state capture is copy-on-write
// snapshots (page tables, not pages) taken under the write lock — writers
// never wait on the encoding or the disk. A successful checkpoint also
// repairs a degraded WAL (see ErrNotDurable): once the full state is on
// disk, the unlogged suffix is covered and appending may resume.
func (e *Engine) Checkpoint() (uint64, error) {
	if e.opts.Store == nil {
		return 0, ErrNoStore
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	e.mu.Lock()
	gen := e.stats.generation.Load()
	state := e.sp.PersistentState()
	e.mu.Unlock()

	if err := e.opts.Store.WriteCheckpoint(wal.Checkpoint{Gen: gen, State: state}); err != nil {
		return gen, err
	}
	// Heal a degraded WAL only if nothing was applied since the capture:
	// a batch applied while the checkpoint file was being written is not in
	// the checkpoint and (being unlogged while broken) not in the WAL, so
	// the gap would persist. The next checkpoint gets it.
	e.mu.Lock()
	if e.stats.generation.Load() == gen {
		e.walBroken.Store(false)
	}
	e.mu.Unlock()
	e.stats.checkpoints.Add(1)
	e.stats.lastCheckpoint.Store(gen)
	return gen, nil
}

// nodeCount reads the (append-only) node count for static validation.
func (e *Engine) nodeCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sp.G.NumNodes()
}

// Current returns the latest published snapshot.
func (e *Engine) Current() *Snapshot { return e.reg.Current() }

// At returns a retained snapshot by generation.
func (e *Engine) At(gen uint64) (*Snapshot, bool) { return e.reg.At(gen) }

// Generations lists the retained snapshot generations, oldest first.
func (e *Engine) Generations() []uint64 { return e.reg.Generations() }

// Stats returns a copy of the engine counters, including the batched query
// engine's scheduler counters.
func (e *Engine) Stats() StatsView {
	v := e.stats.View()
	bv := e.sched.Stats()
	v.BatchesFormed = bv.BatchesFormed
	v.RequestsCoalesced = bv.RequestsCoalesced
	v.AvgBlockFill = bv.AvgBlockFill()
	v.BatchQueueDepth = bv.QueueDepth
	return v
}

// CoreStats returns the underlying sparsifier's cumulative update counters.
func (e *Engine) CoreStats() core.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sp.Stats()
}

func (e *Engine) enqueue(kind opKind, edges []graph.Edge, span trace.Span) (*Pending, error) {
	if e.opts.ReadOnly {
		return nil, ErrReadOnly
	}
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	r := &request{kind: kind, edges: edges, p: newPending(), span: span}
	e.stats.writeRequests.Add(1)
	e.stats.queueDepth.Add(1)
	select {
	case e.reqs <- r:
		return r.p, nil
	case <-e.quit:
		e.stats.queueDepth.Add(-1)
		return nil, ErrClosed
	}
}

// AddAsync enqueues an insertion request and returns its future. The edge
// slice is captured; the caller must not reuse it.
func (e *Engine) AddAsync(edges []graph.Edge) (*Pending, error) {
	if err := validateAdds(edges, e.nodeCount()); err != nil {
		return nil, err
	}
	return e.enqueue(opAdd, edges, trace.Span{})
}

// DeleteAsync enqueues a deletion request (edges identified by endpoints).
func (e *Engine) DeleteAsync(edges []graph.Edge) (*Pending, error) {
	if len(edges) == 0 {
		return nil, errEmptyBatch
	}
	return e.enqueue(opDelete, edges, trace.Span{})
}

// Add enqueues an insertion and waits for its flush. A span carried by ctx
// rides into the batcher so the flush can attribute WAL append/fsync spans
// to the request's trace.
func (e *Engine) Add(ctx context.Context, edges []graph.Edge) (WriteResult, error) {
	if err := validateAdds(edges, e.nodeCount()); err != nil {
		return WriteResult{}, err
	}
	p, err := e.enqueue(opAdd, edges, trace.FromContext(ctx))
	if err != nil {
		return WriteResult{}, err
	}
	return p.Wait(ctx)
}

// Delete enqueues a deletion and waits for its flush.
func (e *Engine) Delete(ctx context.Context, edges []graph.Edge) (WriteResult, error) {
	if len(edges) == 0 {
		return WriteResult{}, errEmptyBatch
	}
	p, err := e.enqueue(opDelete, edges, trace.FromContext(ctx))
	if err != nil {
		return WriteResult{}, err
	}
	return p.Wait(ctx)
}

// Flush enqueues a barrier and waits until every write enqueued before it
// has been applied and published.
func (e *Engine) Flush(ctx context.Context) error {
	p, err := e.enqueue(opBarrier, nil, trace.Span{})
	if err != nil {
		return err
	}
	_, err = p.Wait(ctx)
	return err
}

// Close stops the batcher after flushing already-enqueued writes, then the
// query scheduler. Further writes and scheduled reads fail with ErrClosed;
// direct reads against existing snapshots keep working.
func (e *Engine) Close() {
	e.sendMu.Lock()
	already := e.closed.Swap(true)
	e.sendMu.Unlock()
	if already {
		return
	}
	close(e.quit)
	e.wg.Wait()
	e.sched.Close()
}
