package ingrass

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ingrass/internal/core"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/obs"
	"ingrass/internal/repl"
	"ingrass/internal/service"
	"ingrass/internal/wal"
)

// FsyncPolicy selects when the write-ahead log flushes appended records to
// stable storage (ServiceOptions.Fsync).
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every logged batch: a crash loses no
	// acknowledged write. This is the default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs at most once per FsyncEvery: a crash loses at
	// most that window of acknowledged writes.
	FsyncInterval
	// FsyncNever leaves flushing to the operating system.
	FsyncNever
)

// String renders the policy in the CLI's --fsync vocabulary
// (always, interval, never).
func (p FsyncPolicy) String() string { return wal.SyncPolicy(p).String() }

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	p, err := wal.ParseSyncPolicy(s)
	return FsyncPolicy(p), err
}

// ServiceOptions configures a Service.
type ServiceOptions struct {
	// Options configures the underlying incremental sparsifier (initial
	// density, target condition number, seed, workers).
	Options
	// MaxBatch flushes the write batch once it holds this many edges
	// (default 128).
	MaxBatch int
	// Deprecated: FlushInterval is ignored. The batcher waits for no timer:
	// each batch is every write that queued while the previous one was
	// applied.
	FlushInterval time.Duration
	// QueueCapacity bounds enqueued-but-unflushed write requests; further
	// writers block (default 1024).
	QueueCapacity int
	// RetainSnapshots is how many recent generations stay addressable
	// (default 4).
	RetainSnapshots int
	// Solve is the engine-level default solve option set (tolerances,
	// iteration budgets, inner-solve knobs). Per-request SolveOptions
	// override it field-wise; Workers defaults to Options.Workers and,
	// when that is unset too, to GOMAXPROCS: per-snapshot factorizations
	// freeze the (clamped) count and dispatch into a persistent kernel
	// worker pool, so parallel solves are the allocation-free default
	// rather than an opt-in. Set Solve.Workers to 1 to force serial
	// solves.
	Solve SolveOptions

	// Batch configures the batched query engine every Solve,
	// EffectiveResistance, SolveBatch and EffectiveResistanceBatch call
	// runs through: block width, admission queue and executor workers.
	Batch BatchOptions

	// DataDir, when non-empty, makes the service durable: every applied
	// write batch is appended to a write-ahead log in this directory before
	// its generation becomes visible, and Checkpoint persists the full
	// state there. NewService requires the directory to hold no prior
	// state (use LoadService to resume one); it writes an initial
	// generation-0 checkpoint so the directory is recoverable from the
	// first write on.
	DataDir string
	// Fsync is the WAL flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the flush interval for FsyncInterval (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes rotates WAL segments at this size (default 64 MiB).
	SegmentBytes int64

	// Maintenance configures the closed-loop maintenance controller: when
	// Enabled, the service watches its own health signals (solve iteration
	// trend, periodic condition-number estimates, edge churn) and re-runs the
	// inGRASS setup phase in the background — rebuilding the LRD embedding
	// and sketch on a copy-on-write snapshot without stalling writes — when a
	// threshold trips. See MaintenanceOptions.
	Maintenance MaintenanceOptions
}

// MaintenanceOptions configures closed-loop sparsifier maintenance. The
// incremental update path filters each new edge against the embedding
// computed at setup time; under sustained churn that embedding goes stale and
// solve iteration counts creep upward. The maintenance controller closes the
// loop: it evaluates health signals on a fixed cadence and, when one trips,
// rebuilds the setup basis from the current sparsifier in the background and
// swaps it in as a new generation (logged to the WAL before publication,
// exactly like a write batch).
//
// Every threshold is opt-in: a zero IterTarget, CondThreshold, or
// ChurnFactor disables that trigger. With Enabled false the controller never
// starts, but ForceResparsify still works.
type MaintenanceOptions struct {
	// Enabled starts the background controller goroutine.
	Enabled bool
	// Interval is the health-evaluation cadence (default 2s).
	Interval time.Duration
	// IterTarget is the mean solve iteration count the loop steers toward:
	// evaluations whose recent mean exceeds it trigger a rebuild, and
	// DensityTune adjusts sparsifier density against it. 0 disables the
	// iteration trigger.
	IterTarget float64
	// MinSolves is the fewest solves an evaluation window needs before its
	// iteration mean is trusted (default 8).
	MinSolves int
	// CondThreshold triggers a rebuild when the periodic condition-number
	// estimate kappa(L_G, L_H) exceeds it. 0 disables condition checks.
	CondThreshold float64
	// CondEvery runs the condition estimate every Nth evaluation (default 4);
	// it costs a few preconditioned solves.
	CondEvery int
	// CondIters bounds the power iterations per estimate (default 12; a warm
	// start from the previous estimate keeps a small budget accurate).
	CondIters int
	// CondSeed seeds the first (cold) estimate.
	CondSeed uint64
	// ChurnFactor triggers a rebuild once the edges applied since the current
	// basis reach ChurnFactor × (basis sparsifier edges). 0 disables the
	// churn trigger.
	ChurnFactor float64
	// CooldownTicks suppresses new triggers for this many evaluations after a
	// swap, letting the signals re-baseline (default 5).
	CooldownTicks int
	// DensityTune retunes the sparsifier's target condition number at each
	// rebuild so density tracks IterTarget: iterating hot makes the next
	// basis denser, running comfortably under target makes it sparser.
	DensityTune bool
	// TargetCondMin and TargetCondMax clamp the tuned target condition number
	// (defaults 10 and 1000).
	TargetCondMin, TargetCondMax float64
	// RetainAfterSwap trims retained snapshot generations to the newest N
	// right after a swap publishes, releasing factorizations built on the
	// superseded basis as soon as readers drain. Defaults to 1 when Enabled;
	// set it to RetainSnapshots to keep the full retention window across
	// swaps.
	RetainAfterSwap int
}

func (m MaintenanceOptions) internal() service.MaintenanceOptions {
	o := service.MaintenanceOptions{
		Enabled:         m.Enabled,
		Interval:        m.Interval,
		IterTarget:      m.IterTarget,
		MinSolves:       m.MinSolves,
		CondThreshold:   m.CondThreshold,
		CondEvery:       m.CondEvery,
		CondIters:       m.CondIters,
		CondSeed:        m.CondSeed,
		ChurnFactor:     m.ChurnFactor,
		CooldownTicks:   m.CooldownTicks,
		DensityTune:     m.DensityTune,
		TargetCondMin:   m.TargetCondMin,
		TargetCondMax:   m.TargetCondMax,
		RetainAfterSwap: m.RetainAfterSwap,
	}
	if m.Enabled && o.RetainAfterSwap == 0 {
		o.RetainAfterSwap = 1
	}
	return o
}

// walOptions builds the store configuration, registering the WAL timing
// histograms in reg so fsync and checkpoint latency show up on /metrics.
func (o ServiceOptions) walOptions(reg *obs.Registry) wal.Options {
	return wal.Options{
		SegmentBytes: o.SegmentBytes,
		Sync:         wal.SyncPolicy(o.Fsync),
		SyncEvery:    o.FsyncEvery,
		AppendDur: reg.Histogram("ingrass_wal_append_duration_seconds",
			"wall-clock latency of WAL batch appends (including any inline fsync)", obs.ScaleSeconds),
		SyncDur: reg.Histogram("ingrass_wal_fsync_duration_seconds",
			"wall-clock latency of WAL fsyncs", obs.ScaleSeconds),
		CheckpointDur: reg.Histogram("ingrass_checkpoint_duration_seconds",
			"wall-clock latency of full-state checkpoint writes", obs.ScaleSeconds),
	}
}

func (o ServiceOptions) engineOptions(sopts SolveOptions) service.Options {
	s := sopts.internal()
	if s.Workers <= 0 {
		s.Workers = o.Options.normalized().Workers
	}
	if s.Workers <= 0 {
		// Parallel solves are the default: the persistent kernel pool
		// clamps to GOMAXPROCS and keeps the warm path allocation-free, so
		// there is no longer a reason to default to serial.
		s.Workers = runtime.GOMAXPROCS(0)
	}
	return service.Options{
		MaxBatch:      o.MaxBatch,
		QueueCapacity: o.QueueCapacity,
		Retain:        o.RetainSnapshots,
		Solver:        s,
		Batch:         o.Batch.internal(),
		Maintenance:   o.Maintenance.internal(),
	}
}

// Service is the concurrent counterpart of Incremental: a long-lived engine
// that owns the incremental sparsifier, serves snapshot-isolated reads
// (Solve, EffectiveResistance, ConditionNumber, SparsifierSnapshot) from
// any number of goroutines, and applies writes (AddEdges, DeleteEdges)
// through a coalescing asynchronous batcher. Reads run against an immutable
// copy-on-write snapshot whose preconditioner factorization is cached per
// generation, so repeated solves on an unchanged graph skip setup.
type Service struct {
	eng     *service.Engine
	store   *wal.Store // nil without DataDir
	metrics *obs.Registry

	// Replication roles (repl.go): at most one of these is set. A primary
	// ships its WAL through replPrimary; a follower Service (built by
	// Follow) applies the stream through follower and serves read-only.
	replPrimary  *repl.Primary
	replHandlers *ReplicationHandlers
	follower     *repl.Follower
}

// NewService builds the initial sparsifier H(0) of g (as NewIncremental
// does), runs the inGRASS setup phase, and starts the serving engine. The
// Service takes ownership of g: the caller must not touch it afterwards.
// Close the Service to stop the write pipeline.
//
// With ServiceOptions.DataDir set the service is durable (see Checkpoint
// and LoadService). NewService refuses a data directory that already holds
// state: silently rebuilding over an existing log would orphan it, and
// resuming it is LoadService's job.
func NewService(g *Graph, opts ServiceOptions) (*Service, error) {
	metrics := obs.NewRegistry()
	// Claim the data directory before the (potentially minutes-long) setup
	// phase, so a directory that already holds state fails fast.
	var store *wal.Store
	if opts.DataDir != "" {
		var err error
		store, err = wal.Open(opts.DataDir, opts.walOptions(metrics))
		if err != nil {
			return nil, fmt.Errorf("ingrass: open data dir: %w", err)
		}
		if !store.Empty() {
			store.Close()
			return nil, fmt.Errorf("%w: %s", ErrDataDirNotEmpty, opts.DataDir)
		}
	}
	fail := func(err error) (*Service, error) {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	o := opts.Options.normalized()
	init, err := grass.Sparsify(g.g, grass.Config{
		TargetDensity:    o.InitialDensity,
		Tree:             grass.TreeLowStretch,
		SimilarityFilter: true,
		Seed:             o.Seed,
	})
	if err != nil {
		return fail(fmt.Errorf("ingrass: initial sparsifier: %w", err))
	}
	sp, err := core.NewSparsifier(g.g, init.H, core.Config{
		TargetCond: o.TargetCond,
		LRD:        o.lrdConfig(),
		Workers:    o.Workers,
	})
	if err != nil {
		return fail(err)
	}
	eopts := opts.engineOptions(opts.Solve)
	eopts.Obs = metrics
	if store != nil {
		// The generation-0 checkpoint makes the directory recoverable
		// before the first write is ever logged.
		if err := store.WriteCheckpoint(wal.Checkpoint{Gen: 0, State: sp.PersistentState()}); err != nil {
			return fail(fmt.Errorf("ingrass: initial checkpoint: %w", err))
		}
		eopts.Store = store
	}
	return &Service{eng: service.New(sp, eopts), store: store, metrics: metrics}, nil
}

// LoadService resumes a durable service from ServiceOptions.DataDir:
// it loads the newest checkpoint, replays the write-ahead-log tail through
// the identical update path, and starts serving at the exact generation the
// previous process last made durable — without re-running GRASS setup. The
// sparsifier configuration (target condition number, seeds, filter level)
// comes from the checkpoint, so opts.Options cannot alter the recovered
// algorithm state; runtime knobs come from opts as usual — batching, solve
// defaults, fsync policy, and Options.Workers (the solver-parallelism
// default when Solve.Workers is unset).
//
// A torn trailing WAL record (a crash mid-append) is detected by its CRC
// frame and truncated away; it carried a write that was never acknowledged.
// Damage anywhere else fails with an error matching ErrCorruptData.
func LoadService(opts ServiceOptions) (*Service, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("ingrass: LoadService requires DataDir")
	}
	metrics := obs.NewRegistry()
	store, err := wal.Open(opts.DataDir, opts.walOptions(metrics))
	if err != nil {
		return nil, fmt.Errorf("ingrass: open data dir: %w", err)
	}
	eopts := opts.engineOptions(opts.Solve)
	eopts.Obs = metrics
	eng, err := service.Recover(store, eopts)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("ingrass: recover %s: %w", opts.DataDir, err)
	}
	return &Service{eng: eng, store: store, metrics: metrics}, nil
}

// Checkpoint persists the service's full current state to the data
// directory and prunes the WAL records it covers, without stalling
// concurrent reads or writes (the state capture is a copy-on-write
// snapshot, which copies page tables, not pages). It returns the generation the checkpoint covers. Checkpoint
// also restores durability after a degraded period (see ErrNotDurable).
func (s *Service) Checkpoint() (uint64, error) {
	gen, err := s.eng.Checkpoint()
	if err != nil {
		return gen, fmt.Errorf("ingrass: checkpoint: %w", err)
	}
	return gen, nil
}

// ForceResparsify rebuilds the setup basis (LRD embedding + sketch) from the
// current sparsifier in the background and swaps it in as a new generation,
// regardless of the maintenance controller's thresholds (or whether the
// controller is enabled at all). The rebuild runs on the calling goroutine
// against a copy-on-write snapshot, so concurrent reads and writes proceed
// unstalled; only the O(delta) adoption briefly holds the write lock. It
// returns the generation that published the swap. At most one rebuild runs
// per service: concurrent calls fail with ErrRebuildInProgress.
func (s *Service) ForceResparsify(ctx context.Context) (uint64, error) {
	gen, err := s.eng.Resparsify(ctx)
	if err != nil {
		return gen, fmt.Errorf("ingrass: resparsify: %w", err)
	}
	return gen, nil
}

// WriteResult reports one completed write request.
type WriteResult struct {
	// Generation is the snapshot generation in which the write became
	// visible to readers.
	Generation uint64 `json:"generation"`
	// Included/Merged/Redistributed count the inGRASS filter outcomes for
	// insertions.
	Included      int `json:"included"`
	Merged        int `json:"merged"`
	Redistributed int `json:"redistributed"`
	// Deleted/Promoted count deletion outcomes.
	Deleted  int `json:"deleted"`
	Promoted int `json:"promoted"`
}

func fromInternalResult(r service.WriteResult) WriteResult {
	return WriteResult{
		Generation:    r.Generation,
		Included:      r.Included,
		Merged:        r.Merged,
		Redistributed: r.Redistributed,
		Deleted:       r.Deleted,
		Promoted:      r.Promoted,
	}
}

// PendingWrite is the future for an asynchronous write.
type PendingWrite struct {
	p *service.Pending
}

// Done is closed once the write has been applied (or rejected).
func (w *PendingWrite) Done() <-chan struct{} { return w.p.Done() }

// Wait blocks until the write completes or ctx is cancelled.
func (w *PendingWrite) Wait(ctx context.Context) (WriteResult, error) {
	res, err := w.p.Wait(ctx)
	return fromInternalResult(res), err
}

func toInternalEdges(edges []Edge) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// AddEdgesAsync enqueues an insertion batch and returns immediately; the
// batcher coalesces it with neighboring requests into one update pass.
//
// Within one flushed batch, all coalesced insertions apply before any
// deletions. For a delete-then-add of the same endpoint pair that lands in
// a single flush, the deletion still removes the oldest matching edge, so
// the outcome matches sequential execution; interleave a Flush between the
// two writes if strict ordering against a pathological parallel-edge
// history matters.
func (s *Service) AddEdgesAsync(edges []Edge) (*PendingWrite, error) {
	p, err := s.eng.AddAsync(toInternalEdges(edges))
	if err != nil {
		return nil, err
	}
	return &PendingWrite{p: p}, nil
}

// AddEdges enqueues an insertion batch and waits until it is applied and
// published.
func (s *Service) AddEdges(ctx context.Context, edges []Edge) (WriteResult, error) {
	res, err := s.eng.Add(ctx, toInternalEdges(edges))
	return fromInternalResult(res), err
}

// DeleteEdgesAsync enqueues a deletion batch (edges identified by
// endpoints; W is ignored).
func (s *Service) DeleteEdgesAsync(edges []Edge) (*PendingWrite, error) {
	p, err := s.eng.DeleteAsync(toInternalEdges(edges))
	if err != nil {
		return nil, err
	}
	return &PendingWrite{p: p}, nil
}

// DeleteEdges enqueues a deletion batch and waits until it is applied.
func (s *Service) DeleteEdges(ctx context.Context, edges []Edge) (WriteResult, error) {
	res, err := s.eng.Delete(ctx, toInternalEdges(edges))
	return fromInternalResult(res), err
}

// Solve computes x = L_G^+ b against the current snapshot. Safe for
// concurrent use; the returned stats carry the generation that served the
// solve. Concurrent same-generation solves with the same options share one
// blocked multi-RHS execution; the answer is bit-identical to an
// independent solve. opts overrides the engine defaults field-wise for
// this request (a zero opts means engine defaults). ctx cancellation or
// deadline expiry aborts the solve within one outer iteration with an
// error matching ErrCancelled; ErrNoConvergence reports an exhausted
// iteration budget. Partial stats accompany both.
func (s *Service) Solve(ctx context.Context, b []float64, opts SolveOptions) ([]float64, SolveStats, error) {
	if err := s.readGate(); err != nil {
		return nil, SolveStats{}, err
	}
	snap := s.eng.Current()
	if len(b) != snap.G.NumNodes() {
		return nil, SolveStats{}, fmt.Errorf("ingrass: rhs length %d != %d nodes", len(b), snap.G.NumNodes())
	}
	x := make([]float64, len(b))
	ist, err := s.eng.SolveCoalesced(ctx, snap, x, b, opts.internal())
	if err != nil && ctx != nil && ctx.Err() != nil && !ist.Converged && ist.Iterations == 0 {
		// An abandoned wait withholds the buffer: its column may still be
		// in flight inside the group.
		x = nil
	}
	return x, fromInternalSolveStats(ist), err
}

// SolveInto is Solve writing the solution into the caller-provided x
// (len(x) == len(b)). It runs on the calling goroutine, outside the
// coalescing scheduler, and the warm path performs no allocation: all
// scratch comes from the snapshot's pooled workspaces, which is what keeps
// steady-state solve throughput garbage-free under heavy traffic.
func (s *Service) SolveInto(ctx context.Context, x, b []float64, opts SolveOptions) (SolveStats, error) {
	if err := s.readGate(); err != nil {
		return SolveStats{}, err
	}
	st, err := s.eng.Current().SolveInto(ctx, x, b, opts.internal())
	return fromInternalSolveStats(st), err
}

func fromInternalSolveStats(st service.SolveStats) SolveStats {
	return SolveStats{
		Iterations:  st.Iterations,
		Residual:    st.Residual,
		Converged:   st.Converged,
		PrecondUses: st.PrecondUses,
		Generation:  st.Generation,
	}
}

// EffectiveResistance computes the effective resistance between u and v on
// the current snapshot's original graph, returning the generation that
// served the query. Concurrent same-generation queries and solves share
// one blocked execution. ctx cancellation aborts the underlying solve.
func (s *Service) EffectiveResistance(ctx context.Context, u, v int) (float64, uint64, error) {
	if err := s.readGate(); err != nil {
		return 0, 0, err
	}
	snap := s.eng.Current()
	r, err := s.eng.ResistanceCoalesced(ctx, snap, u, v)
	return r, snap.Gen, err
}

// ConditionNumber estimates kappa(L_G, L_H) for the current snapshot. ctx
// cancellation aborts the power iteration between steps.
func (s *Service) ConditionNumber(ctx context.Context, seed uint64) (float64, error) {
	if err := s.readGate(); err != nil {
		return 0, err
	}
	return s.eng.Current().ConditionNumber(ctx, seed)
}

// SparsifierSnapshot returns the current generation's sparsifier H and its
// generation. The graph is an immutable snapshot: later writes to the
// service never affect it, and mutating it copies first. Each caller gets
// its own copy-on-write handle, so mutating it can never corrupt the
// published generation other readers still see.
func (s *Service) SparsifierSnapshot() (*Graph, uint64) {
	snap := s.eng.Current()
	return wrap(snap.ExportSparsifier().Snapshot()), snap.Gen
}

// SparsifierAt returns the sparsifier of a retained generation, if still
// addressable (see ServiceOptions.RetainSnapshots).
func (s *Service) SparsifierAt(gen uint64) (*Graph, bool) {
	snap, ok := s.eng.At(gen)
	if !ok {
		return nil, false
	}
	return wrap(snap.ExportSparsifier().Snapshot()), true
}

// OriginalSnapshot returns the current generation's original graph G.
func (s *Service) OriginalSnapshot() (*Graph, uint64) {
	snap := s.eng.Current()
	return wrap(snap.G.Snapshot()), snap.Gen
}

// Generation returns the currently served snapshot generation.
func (s *Service) Generation() uint64 { return s.eng.Current().Gen }

// Metrics returns the service's observability registry: every counter,
// gauge, and latency histogram the process maintains, ready for Prometheus
// text exposition (obs.Registry.WritePrometheus) or selective rendering
// (WriteText). The registry is the single source of truth — Stats is a
// point-in-time view over the same underlying values.
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// LatencySummary digests a latency histogram for JSON reporting: count of
// samples, their sum, tail quantiles, and the maximum, all in seconds.
// Quantiles carry the histogram's bucket resolution (at most 12.5% relative
// error).
type LatencySummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

func fromSummary(s obs.Summary) LatencySummary {
	return LatencySummary{Count: s.Count, Sum: s.Sum, P50: s.P50, P90: s.P90,
		P99: s.P99, P999: s.P999, Max: s.Max}
}

// ServiceStats is a point-in-time copy of the engine counters.
type ServiceStats struct {
	Generation        uint64 `json:"generation"`
	Solves            uint64 `json:"solves"`
	SolveIters        uint64 `json:"solve_iters"`
	PrecondBuilds     uint64 `json:"precond_builds"`
	PrecondReuses     uint64 `json:"precond_reuses"`
	ResistanceQueries uint64 `json:"resistance_queries"`
	CondQueries       uint64 `json:"cond_queries"`
	SparsifierExports uint64 `json:"sparsifier_exports"`
	WriteRequests     uint64 `json:"write_requests"`
	WriteErrors       uint64 `json:"write_errors"`
	Flushes           uint64 `json:"flushes"`
	FlushedAdds       uint64 `json:"flushed_adds"`
	FlushedDeletes    uint64 `json:"flushed_deletes"`
	QueueDepth        int64  `json:"queue_depth"`
	// Solver failure-mode counters, one per finished solve column:
	// iteration-budget exhaustion (served as HTTP 422), deadline expiry
	// (408), and client cancellation (499).
	SolveNoConvergence    uint64 `json:"solve_no_convergence"`
	SolveDeadlineExceeded uint64 `json:"solve_deadline_exceeded"`
	SolveCancelled        uint64 `json:"solve_cancelled"`
	// SolveLatency digests the per-solve wall-clock histogram in seconds.
	SolveLatency LatencySummary `json:"solve_latency_seconds"`
	// Frozen-operator shape of the served generation: storage layout ("csr"
	// or "sell", "auto" until the first factorization), SELL padding
	// fraction, and arena bytes reserved by the G operator (H keeps no
	// operator, only its factor).
	OperatorFormat       string  `json:"operator_format"`
	OperatorPaddingRatio float64 `json:"operator_padding_ratio"`
	OperatorArenaBytes   uint64  `json:"operator_arena_bytes"`
	// Preconditioner regime of the served generation: true when an exact
	// LDLᵀ factor of H preconditions solves, false when elimination stopped
	// at the pivot-degree cap and solves precondition with G's Jacobi
	// diagonal (PrecondUses then reads 0); and the entries the factor
	// stores (0 in the Jacobi regime).
	PrecondFactored  bool   `json:"precond_factored"`
	PrecondFactorNNZ uint64 `json:"precond_factor_nnz"`
	// Durability counters (zero without DataDir): logged batches, their
	// framed bytes, failed appends, completed checkpoints, and the
	// generation the newest checkpoint covers.
	WALAppends        uint64 `json:"wal_appends"`
	WALBytes          uint64 `json:"wal_bytes"`
	WALErrors         uint64 `json:"wal_errors"`
	Checkpoints       uint64 `json:"checkpoints"`
	LastCheckpointGen uint64 `json:"last_checkpoint_gen"`
	// Batched query engine counters: blocked groups executed, requests that
	// shared a group, mean right-hand sides per group, and requests admitted
	// to the scheduler but not yet executed.
	BatchesFormed     uint64  `json:"batches_formed"`
	RequestsCoalesced uint64  `json:"requests_coalesced"`
	AvgBlockFill      float64 `json:"avg_block_fill"`
	BatchQueueDepth   int64   `json:"batch_queue_depth"`
	// Closed-loop maintenance: trigger counts by reason, completed and failed
	// background rebuilds, the generation the newest swap published, the
	// controller state ("disabled", "idle", "rebuilding", "swapping",
	// "cooldown"), the (auto-tuned) target condition number, the
	// iteration-mean trend the loop steers by, the latest periodic kappa
	// estimate, and snapshots evicted by the post-swap GC pressure policy.
	MaintTriggersIterations uint64  `json:"maint_triggers_iterations"`
	MaintTriggersCond       uint64  `json:"maint_triggers_cond"`
	MaintTriggersChurn      uint64  `json:"maint_triggers_churn"`
	MaintTriggersManual     uint64  `json:"maint_triggers_manual"`
	MaintRebuilds           uint64  `json:"maint_rebuilds"`
	MaintFailures           uint64  `json:"maint_failures"`
	MaintLastGeneration     uint64  `json:"maint_last_generation"`
	MaintState              string  `json:"maint_state"`
	MaintTargetCond         float64 `json:"maint_target_cond"`
	MaintIterTrend          float64 `json:"maint_iter_trend"`
	MaintKappa              float64 `json:"maint_kappa"`
	GenerationsEvicted      uint64  `json:"generations_evicted"`
	// Sparsifier state for the current generation.
	Nodes           int     `json:"nodes"`
	GraphEdges      int     `json:"graph_edges"`
	SparsifierEdges int     `json:"sparsifier_edges"`
	Density         float64 `json:"density"`
	// Replication. Role is "standalone", "primary", or "follower". The
	// repl_* fields are zero outside their role: lag, readiness, and
	// apply/bootstrap/fetch counters describe a follower; follower counts,
	// retained bytes, and evictions describe a primary.
	Role                  string  `json:"role"`
	ReplLagGenerations    uint64  `json:"repl_lag_generations"`
	ReplLagSeconds        float64 `json:"repl_lag_seconds"`
	ReplReady             bool    `json:"repl_ready"`
	ReplStale             bool    `json:"repl_stale"`
	ReplAppliedRecords    uint64  `json:"repl_applied_records"`
	ReplBootstraps        uint64  `json:"repl_bootstraps"`
	ReplFetchErrors       uint64  `json:"repl_fetch_errors"`
	ReplGapRefusals       uint64  `json:"repl_gap_refusals"`
	ReplCRCErrors         uint64  `json:"repl_crc_errors"`
	ReplFollowers         int     `json:"repl_followers"`
	ReplRetainedBytes     int64   `json:"repl_retained_bytes"`
	ReplFollowerEvictions uint64  `json:"repl_follower_evictions"`
}

// Stats returns engine counters plus current-generation graph sizes.
func (s *Service) Stats() ServiceStats {
	v := s.eng.Stats()
	snap := s.eng.Current()
	out := ServiceStats{
		Generation:            v.Generation,
		Solves:                v.Solves,
		SolveIters:            v.SolveIters,
		PrecondBuilds:         v.PrecondBuilds,
		PrecondReuses:         v.PrecondReuses,
		ResistanceQueries:     v.ResistanceQueries,
		CondQueries:           v.CondQueries,
		SparsifierExports:     v.SparsifierExports,
		WriteRequests:         v.WriteRequests,
		WriteErrors:           v.WriteErrors,
		Flushes:               v.Flushes,
		FlushedAdds:           v.FlushedAdds,
		FlushedDeletes:        v.FlushedDeletes,
		QueueDepth:            v.QueueDepth,
		SolveNoConvergence:    v.SolveNoConvergence,
		SolveDeadlineExceeded: v.SolveDeadlineExceeded,
		SolveCancelled:        v.SolveCancelled,
		SolveLatency:          fromSummary(v.SolveLatency),
		OperatorFormat:        v.OperatorFormat,
		OperatorPaddingRatio:  v.OperatorPaddingRatio,
		OperatorArenaBytes:    v.OperatorArenaBytes,
		PrecondFactored:       v.PrecondFactored,
		PrecondFactorNNZ:      v.PrecondFactorNNZ,
		WALAppends:            v.WALAppends,
		WALBytes:              v.WALBytes,
		WALErrors:             v.WALErrors,
		Checkpoints:           v.Checkpoints,
		LastCheckpointGen:     v.LastCheckpointGen,
		BatchesFormed:         v.BatchesFormed,
		RequestsCoalesced:     v.RequestsCoalesced,
		AvgBlockFill:          v.AvgBlockFill,
		BatchQueueDepth:       v.BatchQueueDepth,

		MaintTriggersIterations: v.MaintTriggersIterations,
		MaintTriggersCond:       v.MaintTriggersCond,
		MaintTriggersChurn:      v.MaintTriggersChurn,
		MaintTriggersManual:     v.MaintTriggersManual,
		MaintRebuilds:           v.MaintRebuilds,
		MaintFailures:           v.MaintFailures,
		MaintLastGeneration:     v.MaintLastGeneration,
		MaintState:              v.MaintState,
		MaintTargetCond:         v.MaintTargetCond,
		MaintIterTrend:          v.MaintIterTrend,
		MaintKappa:              v.MaintKappa,
		GenerationsEvicted:      v.GenerationsEvicted,

		Nodes:           snap.G.NumNodes(),
		GraphEdges:      snap.G.NumEdges(),
		SparsifierEdges: snap.H.NumEdges(),
		Density:         graph.OffTreeDensity(snap.H.NumEdges(), snap.H.NumNodes(), snap.G.NumEdges()),

		Role:      s.Role(),
		ReplReady: s.Ready(),
	}
	if s.follower != nil {
		fs := s.follower.Stats()
		out.ReplLagGenerations = fs.LagGenerations
		out.ReplLagSeconds = fs.LagSeconds
		out.ReplStale = fs.Stale
		out.ReplAppliedRecords = fs.AppliedRecords
		out.ReplBootstraps = fs.Bootstraps
		out.ReplFetchErrors = fs.FetchErrors
		out.ReplGapRefusals = fs.GapRefusals
		out.ReplCRCErrors = fs.CRCErrors
	}
	if s.replPrimary != nil {
		out.ReplFollowers = s.replPrimary.Followers()
		out.ReplRetainedBytes = s.replPrimary.RetainedBytes()
		out.ReplFollowerEvictions = s.replPrimary.Evictions()
	}
	return out
}

// Flush blocks until every write enqueued before it has been applied and
// published.
func (s *Service) Flush(ctx context.Context) error { return s.eng.Flush(ctx) }

// Close stops the write pipeline after flushing already-enqueued writes,
// then syncs and closes the data directory (if any). Afterwards every
// write (AddEdges, DeleteEdges, their Async forms, Flush, ForceResparsify)
// and every scheduled read (Solve, EffectiveResistance, SolveBatch,
// EffectiveResistanceBatch) fails with an error matching ErrClosed.
// SolveInto, ConditionNumber and the snapshot accessors run on the
// caller's goroutine and keep working on the last published snapshot.
func (s *Service) Close() {
	if s.follower != nil {
		s.follower.Stop()
	}
	if s.replPrimary != nil {
		s.replPrimary.Close()
	}
	s.eng.Close()
	if s.store != nil {
		s.store.Close()
	}
}
