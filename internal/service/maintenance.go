package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"ingrass/internal/cond"
	"ingrass/internal/core"
	"ingrass/internal/solver"
	"ingrass/internal/wal"
)

// Closed-loop sparsifier maintenance: the subsystem that acts on the
// engine's own health signals. A controller evaluates three degradation
// signals per tick — the mean outer CG iteration count of recent solves
// (from the same counters the solve histograms feed), a periodic
// warm-started cond.Estimate of kappa(L_G, L_H), and the edge churn applied
// since the current setup basis was built — and when a knob trips it
// schedules a background re-sparsification: core.BuildSetup runs on an O(1)
// copy-on-write snapshot of H with no engine lock held, and the finished
// basis is handed to the single writer goroutine, which adopts it in
// O(edges admitted during the build), bumps the generation, logs a
// maintenance WAL record before publication (the same WAL-before-publish
// contract write batches honor), and publishes the new snapshot.
//
// The trigger state machine: Idle → Rebuilding (offline build in progress)
// → Swapping (basis queued behind the writer) → Cooldown (suppressing
// re-triggers for CooldownTicks evaluations) → Idle. Manual Resparsify
// calls run the same Rebuilding/Swapping path without touching cooldown.

// ErrRebuildInProgress reports a re-sparsification request while another
// rebuild is already running; at most one basis build is in flight per
// engine.
var ErrRebuildInProgress = errors.New("service: re-sparsification already in progress")

// MaintReason classifies what tripped a rebuild.
type MaintReason int

const (
	// MaintNone: no trigger fired.
	MaintNone MaintReason = iota
	// MaintReasonIters: recent mean solve iterations exceeded IterTarget.
	MaintReasonIters
	// MaintReasonCond: the periodic kappa estimate exceeded CondThreshold.
	MaintReasonCond
	// MaintReasonChurn: edges applied since the basis exceeded
	// ChurnFactor × basis edges.
	MaintReasonChurn
	// MaintReasonManual: an explicit Resparsify call.
	MaintReasonManual
)

// String renders the reason in the metrics label vocabulary.
func (r MaintReason) String() string {
	switch r {
	case MaintNone:
		return "none"
	case MaintReasonIters:
		return "iterations"
	case MaintReasonCond:
		return "cond"
	case MaintReasonChurn:
		return "churn"
	case MaintReasonManual:
		return "manual"
	default:
		return "unknown"
	}
}

// MaintState is the controller's observable state.
type MaintState int32

const (
	// MaintDisabled: the engine runs no maintenance controller.
	MaintDisabled MaintState = iota
	// MaintIdle: monitoring, no trigger active.
	MaintIdle
	// MaintRebuilding: an offline basis build is running on a snapshot.
	MaintRebuilding
	// MaintSwapping: a finished basis is queued behind the writer.
	MaintSwapping
	// MaintCooldown: a swap landed recently; triggers are suppressed.
	MaintCooldown
)

// String renders the state for /stats.
func (s MaintState) String() string {
	switch s {
	case MaintDisabled:
		return "disabled"
	case MaintIdle:
		return "idle"
	case MaintRebuilding:
		return "rebuilding"
	case MaintSwapping:
		return "swapping"
	case MaintCooldown:
		return "cooldown"
	default:
		return "unknown"
	}
}

// MaintHooks are deterministic test seams into the maintenance pipeline.
// Production engines leave them zero.
type MaintHooks struct {
	// AfterBuild runs after the offline basis build completes, before the
	// swap is enqueued — the window where the writer-stall regression test
	// parks a rebuild to prove writes flow freely around it.
	AfterBuild func()
	// BeforeLog runs on the writer goroutine after the basis is adopted but
	// before the maintenance WAL record is appended. A non-nil return
	// simulates a crash in that window: the swap is neither logged nor
	// published, and the WAL flips to its sticky degraded mode (the
	// in-memory state has diverged from what the log describes, so later
	// appends would be replayed against the wrong basis).
	BeforeLog func() error
	// OnReport receives every controller health evaluation (ticker loop
	// only; direct HealthCheck callers get the report as a return value).
	OnReport func(MaintReport, error)
}

// MaintenanceOptions configures the closed-loop controller.
type MaintenanceOptions struct {
	// Enabled starts the controller goroutine.
	Enabled bool
	// Interval is the health-evaluation cadence. Default 2s.
	Interval time.Duration
	// IterTarget is the mean outer CG iterations per solve the loop steers
	// toward: evaluations whose recent mean exceeds it trigger a rebuild,
	// and DensityTune adjusts the filter threshold against it. 0 disables
	// the iteration trigger (and tuning).
	IterTarget float64
	// MinSolves is the fewest solves an evaluation window needs before its
	// iteration mean is trusted. Default 8.
	MinSolves int
	// CondThreshold triggers a rebuild when the periodic kappa estimate
	// exceeds it. 0 disables condition-number checks entirely.
	CondThreshold float64
	// CondEvery runs the kappa estimate every Nth evaluation (it costs a
	// few preconditioned solves). Default 4.
	CondEvery int
	// CondIters bounds the power iterations per estimate; the warm start
	// from the previous estimate's vector makes a small budget accurate.
	// Default 12.
	CondIters int
	// CondSeed seeds the first (cold) estimate.
	CondSeed uint64
	// ChurnFactor triggers a rebuild once the edges applied since the
	// current basis reach ChurnFactor × (basis sparsifier edges). 0
	// disables the churn trigger.
	ChurnFactor float64
	// CooldownTicks suppresses new triggers for this many evaluations after
	// a swap, letting the signals re-baseline. Default 5. Measured in
	// ticks, not wall time, so injected-tick tests stay deterministic.
	CooldownTicks int
	// DensityTune retunes the basis TargetCond at each rebuild so the
	// filter threshold tracks IterTarget: iterating hot → lower TargetCond
	// (denser sparsifier), comfortably under target → higher (sparser).
	DensityTune bool
	// TargetCondMin and TargetCondMax clamp the tuned TargetCond.
	// Defaults 10 and 1000.
	TargetCondMin, TargetCondMax float64
	// RetainAfterSwap, when positive, trims the snapshot registry to the
	// newest N generations right after a swap publishes — the GC pressure
	// policy: pre-swap factorizations are built on a superseded basis, and
	// trimming drops the registry's references so their arena reservations
	// and workspace pools free as soon as readers drain. 0 keeps the
	// engine's normal Retain behavior.
	RetainAfterSwap int
	// Ticks, when non-nil, replaces the wall-clock ticker — the
	// deterministic clock injection used by controller tests. Closing the
	// channel stops the controller.
	Ticks <-chan time.Time
	// Hooks are the test seams above.
	Hooks MaintHooks
}

func (m MaintenanceOptions) withDefaults() MaintenanceOptions {
	if m.Interval <= 0 {
		m.Interval = 2 * time.Second
	}
	if m.MinSolves <= 0 {
		m.MinSolves = 8
	}
	if m.CondEvery <= 0 {
		m.CondEvery = 4
	}
	if m.CondIters <= 0 {
		m.CondIters = 12
	}
	if m.CooldownTicks <= 0 {
		m.CooldownTicks = 5
	}
	if m.TargetCondMin <= 0 {
		m.TargetCondMin = 10
	}
	if m.TargetCondMax <= 0 {
		m.TargetCondMax = 1000
	}
	return m
}

// MaintReport is the outcome of one health evaluation.
type MaintReport struct {
	// Reason is the trigger that fired (MaintNone if the engine is healthy).
	Reason MaintReason
	// Triggered reports that a rebuild ran and swapped successfully.
	Triggered bool
	// Suppressed reports a fired trigger that was not acted on (cooldown
	// window, or a rebuild already in flight).
	Suppressed bool
	// Generation is the post-swap generation when Triggered.
	Generation uint64
	// IterMean is the window's mean outer iterations per solve (0 when the
	// window held no solves).
	IterMean float64
	// Kappa is the condition estimate when this evaluation measured one.
	Kappa float64
	// Churn is the edges applied since the current basis.
	Churn uint64
}

// maintMonitor is the controller's cross-evaluation memory.
type maintMonitor struct {
	mu         sync.Mutex
	lastSolves uint64
	lastIters  uint64
	sinceCond  int
	cooldown   int
	condVec    []float64 // warm start for the next kappa estimate
}

// healthSample is one evaluation's inputs, separated from the engine so the
// trigger policy is a pure, table-testable function.
type healthSample struct {
	Solves     uint64  // solves completed in the window
	Iters      uint64  // their summed outer iterations
	Churn      uint64  // edges applied since the current basis
	BasisEdges int     // sparsifier edges when the basis was built
	Kappa      float64 // condition estimate, 0 if not measured this tick
}

// evaluate applies the trigger policy to one sample, returning the fired
// reason (MaintNone if healthy) and the window's iteration mean. Signal
// precedence is iterations > cond > churn: the iteration count is the
// user-visible cost the loop exists to bound, kappa is its leading
// indicator, and churn is the model-free backstop.
func (m MaintenanceOptions) evaluate(s healthSample) (MaintReason, float64) {
	var mean float64
	if s.Solves > 0 {
		mean = float64(s.Iters) / float64(s.Solves)
	}
	if m.IterTarget > 0 && s.Solves >= uint64(m.MinSolves) && mean > m.IterTarget {
		return MaintReasonIters, mean
	}
	if m.CondThreshold > 0 && s.Kappa > m.CondThreshold {
		return MaintReasonCond, mean
	}
	if m.ChurnFactor > 0 && s.BasisEdges > 0 && float64(s.Churn) >= m.ChurnFactor*float64(s.BasisEdges) {
		return MaintReasonChurn, mean
	}
	return MaintNone, mean
}

// tuneTargetCond moves the filter threshold toward the iteration target:
// the next basis's TargetCond is the current one divided by the (clamped)
// ratio of observed mean iterations to the target. Running hot shrinks
// TargetCond — a deeper filter level, denser sparsifier, cheaper solves;
// running cool grows it — sparser H, cheaper updates. The per-rebuild
// adjustment is capped at 2× in either direction so one noisy window
// cannot slam the knob, and the result is clamped to [lo, hi].
func tuneTargetCond(cur, mean, target, lo, hi float64) float64 {
	if mean <= 0 || target <= 0 {
		return cur
	}
	ratio := mean / target
	if ratio > 2 {
		ratio = 2
	} else if ratio < 0.5 {
		ratio = 0.5
	}
	next := cur / ratio
	if next < lo {
		next = lo
	}
	if next > hi {
		next = hi
	}
	return next
}

// maintLoop is the controller goroutine: one health evaluation per tick
// until the engine closes (or an injected tick channel closes).
func (e *Engine) maintLoop() {
	defer e.wg.Done()
	m := e.opts.Maintenance
	tickC := m.Ticks
	if tickC == nil {
		t := time.NewTicker(m.Interval)
		defer t.Stop()
		tickC = t.C
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-e.quit
		cancel()
	}()
	for {
		select {
		case <-e.quit:
			return
		case _, ok := <-tickC:
			if !ok {
				return
			}
		}
		rep, err := e.HealthCheck(ctx)
		if h := m.Hooks.OnReport; h != nil {
			h(rep, err)
		}
	}
}

// HealthCheck runs one maintenance evaluation synchronously: sample the
// health signals, and if a trigger fires outside the cooldown window, run
// the full background rebuild + swap before returning. It is exactly what
// a controller tick executes; tests drive it directly for determinism. The
// returned error reports a failed kappa estimate or a failed rebuild —
// both leave the engine serving its current state.
func (e *Engine) HealthCheck(ctx context.Context) (MaintReport, error) {
	m := e.opts.Maintenance
	mon := &e.maintMon
	mon.mu.Lock()
	solves := e.stats.solves.Load()
	iters := e.stats.solveIters.Load()
	sample := healthSample{
		Solves:     solves - mon.lastSolves,
		Iters:      iters - mon.lastIters,
		Churn:      e.stats.flushedAdds.Load() + e.stats.flushedDeletes.Load() - e.churnBase.Load(),
		BasisEdges: int(e.basisEdges.Load()),
	}
	mon.lastSolves, mon.lastIters = solves, iters

	var condErr error
	if m.CondThreshold > 0 {
		mon.sinceCond++
		if mon.sinceCond >= m.CondEvery {
			mon.sinceCond = 0
			snap := e.Current()
			e.stats.condQueries.Add(1)
			res, err := cond.Estimate(ctx, snap.G, snap.H, cond.Options{
				MaxIters:      m.CondIters,
				Seed:          m.CondSeed,
				LambdaMaxOnly: true,
				StartVector:   mon.condVec,
				Solver:        solver.Options{Workers: e.opts.Solver.Workers},
			})
			if err != nil {
				condErr = err
			} else {
				sample.Kappa = res.Kappa
				mon.condVec = res.Vector
				e.stats.maintKappa.Store(math.Float64bits(res.Kappa))
			}
		}
	}

	reason, mean := m.evaluate(sample)
	if sample.Solves > 0 {
		e.stats.maintIterTrend.Store(math.Float64bits(mean))
	}
	rep := MaintReport{Reason: reason, IterMean: mean, Kappa: sample.Kappa, Churn: sample.Churn}
	cooling := mon.cooldown > 0
	if cooling {
		mon.cooldown--
		if mon.cooldown == 0 {
			e.stats.maintState.CompareAndSwap(int32(MaintCooldown), int32(MaintIdle))
		}
	}
	mon.mu.Unlock()

	if reason == MaintNone {
		return rep, condErr
	}
	if cooling {
		rep.Suppressed = true
		return rep, condErr
	}
	gen, err := e.resparsify(ctx, reason)
	if err != nil {
		if errors.Is(err, ErrRebuildInProgress) {
			rep.Suppressed = true
			return rep, condErr
		}
		return rep, err
	}
	rep.Triggered = true
	rep.Generation = gen
	mon.mu.Lock()
	mon.cooldown = m.CooldownTicks
	mon.mu.Unlock()
	e.stats.maintState.CompareAndSwap(int32(MaintIdle), int32(MaintCooldown))
	return rep, nil
}

// Resparsify forces a background re-sparsification: rebuild the setup
// basis (LRD decomposition + sketch) from a COW snapshot of the current
// sparsifier and swap it in as a new generation. The build runs on the
// calling goroutine without any engine lock; only the O(delta) adoption
// runs on the writer. Returns the generation that published the swap.
// At most one rebuild runs at a time (ErrRebuildInProgress otherwise).
func (e *Engine) Resparsify(ctx context.Context) (uint64, error) {
	return e.resparsify(ctx, MaintReasonManual)
}

func (e *Engine) resparsify(ctx context.Context, reason MaintReason) (uint64, error) {
	if e.opts.ReadOnly {
		return 0, ErrReadOnly
	}
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if !e.maintFlight.CompareAndSwap(false, true) {
		return 0, ErrRebuildInProgress
	}
	defer e.maintFlight.Store(false)
	e.stats.noteMaintTrigger(reason)
	e.stats.maintState.Store(int32(MaintRebuilding))
	defer func() {
		// Cooldown (if any) is installed by HealthCheck after this returns.
		e.stats.maintState.Store(int32(e.idleMaintState()))
	}()

	// The rebuild input is a copy-on-write snapshot; the writer is blocked
	// only while H's page tables are copied, never for the build.
	e.mu.Lock()
	hSnap := e.sp.H.Snapshot()
	cfg := e.sp.Config()
	e.mu.Unlock()

	if e.opts.Maintenance.DensityTune {
		m := e.opts.Maintenance
		mean := math.Float64frombits(e.stats.maintIterTrend.Load())
		cfg.TargetCond = tuneTargetCond(cfg.TargetCond, mean, m.IterTarget, m.TargetCondMin, m.TargetCondMax)
	}

	start := time.Now()
	basis, err := core.BuildSetup(hSnap, cfg)
	e.stats.maintRebuildDur.ObserveSince(start)
	if err != nil {
		e.stats.maintFailures.Add(1)
		return 0, err
	}
	if h := e.opts.Maintenance.Hooks.AfterBuild; h != nil {
		h()
	}

	e.stats.maintState.Store(int32(MaintSwapping))
	p, err := e.enqueueMaint(basis)
	if err != nil {
		e.stats.maintFailures.Add(1)
		return 0, err
	}
	select {
	case <-p.done:
		res, err := p.Result()
		if err != nil {
			return 0, err
		}
		return res.Generation, nil
	case <-ctx.Done():
		// The queued swap may still land; only this waiter gives up.
		return 0, ctx.Err()
	case <-e.quit:
		return 0, ErrClosed
	}
}

// idleMaintState is what "not actively rebuilding" reads as for this
// engine's configuration.
func (e *Engine) idleMaintState() MaintState {
	if e.opts.Maintenance.Enabled {
		return MaintIdle
	}
	return MaintDisabled
}

// enqueueMaint hands a finished basis to the writer goroutine. Routing the
// swap through the batcher — rather than applying it here — keeps the WAL's
// generation sequence totally ordered by construction: one goroutine
// assigns generations and appends records, for write batches and
// maintenance swaps alike.
func (e *Engine) enqueueMaint(basis *core.SetupBasis) (*Pending, error) {
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	r := &request{kind: opMaintain, basis: basis, p: newPending()}
	select {
	case e.reqs <- r:
		return r.p, nil
	case <-e.quit:
		return nil, ErrClosed
	}
}

// applyMaintenance runs on the writer goroutine: adopt the basis under the
// write lock (cheap: sketch catch-up over the edges admitted during the
// build), then follow the exact WAL-before-publish sequence write batches
// use — log the swap record, publish the snapshot, complete the future.
func (e *Engine) applyMaintenance(r *request) {
	start := time.Now()
	e.mu.Lock()
	if err := e.sp.AdoptSetup(r.basis); err != nil {
		e.mu.Unlock()
		e.stats.maintFailures.Add(1)
		r.p.complete(WriteResult{}, err)
		return
	}
	gen := e.stats.generation.Add(1)
	snap := e.snapshotLocked(gen)
	var walRec *wal.BatchRecord
	if e.opts.Store != nil && !e.walBroken.Load() {
		walRec = &wal.BatchRecord{Gen: gen, Maint: &wal.MaintRecord{
			TargetCond: r.basis.TargetCond(),
			HBase:      r.basis.HBase(),
		}}
	}
	// Re-baseline the churn signal at the new basis.
	e.churnBase.Store(e.stats.flushedAdds.Load() + e.stats.flushedDeletes.Load())
	e.basisEdges.Store(uint64(e.sp.H.NumEdges()))
	e.mu.Unlock()
	e.stats.maintSwapDur.ObserveSince(start)

	if h := e.opts.Maintenance.Hooks.BeforeLog; h != nil {
		if err := h(); err != nil {
			// Simulated crash between adoption and the log append. A real
			// crash takes the adopted in-memory state with it — recovery
			// replays the log as if the rebuild never started. The test
			// process lives on with state the log will never describe, so
			// poison the WAL exactly as a failed append would: no later
			// record may land behind the missing one.
			e.walBroken.Store(true)
			e.stats.maintFailures.Add(1)
			r.p.complete(WriteResult{}, err)
			return
		}
	}
	var walErr error
	if walRec != nil {
		n, err := e.opts.Store.Append(*walRec)
		if err != nil {
			e.walBroken.Store(true)
			e.stats.walErrors.Add(1)
			walErr = errNotDurableWrap(err)
		} else {
			e.stats.walAppends.Add(1)
			e.stats.walBytes.Add(uint64(n))
		}
	} else if e.opts.Store != nil {
		walErr = ErrNotDurable
	}
	e.reg.Publish(snap)
	e.stats.maintRebuilds.Add(1)
	e.stats.maintLastGen.Store(gen)
	e.stats.maintTargetCond.Store(math.Float64bits(r.basis.TargetCond()))
	if keep := e.opts.Maintenance.RetainAfterSwap; keep > 0 {
		// GC pressure: generations older than the swap carry factorizations
		// of a superseded basis; dropping the registry's references lets
		// their arenas and workspace pools free once readers drain.
		e.stats.gensEvicted.Add(uint64(e.reg.TrimTo(keep)))
	}
	r.p.complete(WriteResult{Generation: gen}, walErr)
}
