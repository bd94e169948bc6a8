// Package kernel provides the persistent fork-join worker pool behind every
// parallel hot-path primitive in the repository: the nnz-balanced CSR
// Laplacian product and the fused conjugate-gradient vector kernels.
//
// The pre-pool design spawned fresh goroutines and a channel per SpMV call
// — one or more calls per CG iteration, thousands per solve — which both
// allocated on every call (excluding parallel solves from the repo's
// 0-alloc warm-path gate) and paid goroutine start latency far exceeding
// the work below ~100k nonzeros. A Pool instead keeps its workers alive for
// the lifetime of the process: a fork publishes the job through one atomic
// sequence bump, workers spin briefly on that sequence and then park on a
// pre-allocated wake channel, and the join is a single channel receive.
// The steady state allocates nothing.
//
// Ownership: frozen operators (sparse.LapOperator, and through it
// precond.Factorization and every per-snapshot service factorization)
// reference a Pool sized at freeze time from their frozen Workers contract.
// Pools themselves are process-wide singletons keyed by clamped worker
// count (see Shared): snapshot generations come and go with no destructor
// hook, so per-operator pools would leak parked goroutines on every
// eviction. Sharing bounds the process at one pool per distinct worker
// count and at most GOMAXPROCS workers each, while every operator still
// observes its own frozen parallelism degree.
//
// Concurrency contract: any number of goroutines may call Pool methods
// concurrently; each fork-join operation holds an internal mutex for its
// duration, so concurrent solves against one shared pool serialize their
// individual kernels (each of which uses all workers) rather than
// oversubscribing the machine. Kernel bodies must never dispatch back into
// the pool — a nested fork would deadlock on the mutex.
package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ingrass/internal/graph"
)

// kernelFn is one chunk body: it processes worker w's share of the job
// currently published in p.job. Implementations are package-level functions
// so that publishing one never allocates a closure.
type kernelFn func(p *Pool, w int)

// job carries the arguments of the in-flight parallel operation. It is a
// union across kernels; each kernel body reads only its own fields. The
// struct lives inline in the Pool and is rewritten under the pool mutex, so
// publishing a job stores slices and scalars but never allocates.
type job struct {
	csr  *graph.CSR
	sell *graph.SELL // sliced-layout operand of the *SELL kernels
	part []int       // SpMV partition, len workers+1: rows (CSR) or chunks (SELL)

	dst, x, y, z []float64
	alpha, beta  float64
	n            int

	// Multi-vector fields: column blocks and per-column scalars for the
	// blocked kernels. Slice headers only; assigning them allocates nothing.
	mdst, mx, my, mz [][]float64
	mscal            []float64
}

// pad64 keeps per-worker accumulator slots on distinct cache lines so the
// reduction kernels never false-share.
type pad64 struct {
	a, b float64
	_    [48]byte
}

// padMulti is the per-worker reduction slot of the multi-vector kernels:
// one (a, b) accumulator pair per column, padded so adjacent workers' slots
// never share a cache line.
type padMulti struct {
	a, b [graph.MaxMulti]float64
	_    [64]byte
}

// worker is the per-goroutine control block, padded to a cache line so a
// worker flipping its parked flag never invalidates its neighbors'.
type worker struct {
	_      [64]byte
	parked atomic.Bool
	wake   chan struct{} // capacity 1; tokens may go stale (workers re-check)
	_      [64]byte
}

// Pool is a persistent fork-join worker pool of fixed width.
type Pool struct {
	workers int
	spin    int // spin iterations before a worker parks

	// mu serializes fork-join operations end to end: job publication,
	// execution, and completion. Holding it, the caller participates as
	// worker 0.
	mu sync.Mutex

	job     job
	fn      kernelFn
	seq     atomic.Uint32 // bumped once per published job
	pending atomic.Int32  // workers that have not finished their share
	finish  chan struct{} // capacity 1; the last finisher signals the join

	partial  []pad64    // per-worker reduction slots, len workers
	partialM []padMulti // per-worker per-column slots for the multi kernels

	// forks counts fork-join operations dispatched through this pool over
	// its lifetime — the kernel-dispatch rate the observability layer
	// exposes (see SharedForks).
	forks atomic.Uint64

	closed atomic.Bool
	ws     []worker // len workers-1 (the caller is worker 0)
	wg     sync.WaitGroup
}

// clampWorkers bounds a requested worker count to [1, GOMAXPROCS]: more
// workers than processors cannot run and would only add fork/join traffic.
func clampWorkers(workers int) int {
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// New builds a private pool with the given worker count (clamped to
// [1, GOMAXPROCS]). A width-1 pool runs every operation inline and starts
// no goroutines. Callers that cannot guarantee a Close should use Shared.
func New(workers int) *Pool {
	workers = clampWorkers(workers)
	p := &Pool{
		workers:  workers,
		finish:   make(chan struct{}, 1),
		partial:  make([]pad64, workers),
		partialM: make([]padMulti, workers),
	}
	// On a single-processor runtime spinning only steals the publisher's
	// timeslice; park immediately.
	if runtime.GOMAXPROCS(0) > 1 {
		p.spin = 1 << 12
	}
	if workers > 1 {
		p.ws = make([]worker, workers-1)
		for i := range p.ws {
			p.ws[i].wake = make(chan struct{}, 1)
			p.wg.Add(1)
			go p.workerLoop(i)
		}
	}
	return p
}

// Workers returns the pool width; a nil pool reports 1 (serial).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close terminates the worker goroutines. Only pools from New need (and
// accept) closing; shared pools live for the process.
func (p *Pool) Close() {
	if p == nil || p.closed.Swap(true) {
		return
	}
	for i := range p.ws {
		select {
		case p.ws[i].wake <- struct{}{}:
		default:
		}
	}
	p.wg.Wait()
}

// run executes fn's shares for all workers and returns when every share is
// complete. The caller must hold p.mu and have filled p.job. The job is
// cleared after the join, so a pool that outlives its callers (Shared) does
// not keep the last operation's matrix and vectors reachable.
func (p *Pool) run(fn kernelFn) {
	p.forks.Add(1)
	if p.workers == 1 {
		fn(p, 0)
		p.job = job{}
		return
	}
	p.fn = fn
	p.pending.Store(int32(p.workers))
	p.seq.Add(1)
	for i := range p.ws {
		w := &p.ws[i]
		if w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
	p.finishShare(0)
	// The last finisher (possibly this goroutine) put exactly one token in
	// finish; consuming it completes the join, after which no worker will
	// touch p.job until the next publication.
	<-p.finish
	p.job = job{}
}

// finishShare runs worker w's share of the current job and signals the join
// if it was the last one outstanding.
func (p *Pool) finishShare(w int) {
	p.fn(p, w)
	if p.pending.Add(-1) == 0 {
		p.finish <- struct{}{}
	}
}

// workerLoop is the persistent body of worker i (share index i+1): spin on
// the job sequence, park on the wake channel when idle, run one share per
// observed sequence bump.
func (p *Pool) workerLoop(i int) {
	defer p.wg.Done()
	w := &p.ws[i]
	last := uint32(0)
	for {
		spun := 0
		for p.seq.Load() == last {
			if p.closed.Load() {
				return
			}
			if spun < p.spin {
				spun++
				if spun&63 == 0 {
					runtime.Gosched()
				}
				continue
			}
			// Publication order is seq-bump then parked-check, and seqcst
			// atomics order this parked-store before the seq re-check, so a
			// bump concurrent with parking is either seen here or produces a
			// wake token. Stale tokens from earlier jobs just spin us once.
			w.parked.Store(true)
			if p.seq.Load() != last || p.closed.Load() {
				w.parked.Store(false)
				continue
			}
			<-w.wake
			w.parked.Store(false)
		}
		if p.closed.Load() {
			return
		}
		last = p.seq.Load()
		p.finishShare(i + 1)
	}
}

// span returns worker w's slice bounds for a uniform split of [0, n).
func (p *Pool) span(w, n int) (lo, hi int) {
	return w * n / p.workers, (w + 1) * n / p.workers
}

// Forks returns the number of fork-join operations this pool has run.
func (p *Pool) Forks() uint64 {
	if p == nil {
		return 0
	}
	return p.forks.Load()
}

// Shared pools, one per distinct clamped worker count.
var (
	sharedMu sync.Mutex
	shared   map[int]*Pool
)

// Shared returns the process-wide pool for the given worker count, creating
// it on first use, or nil when the clamped count is 1 (serial — every
// kernel entry point treats a nil *Pool as "run serially"). Shared pools
// are never closed; the process holds at most one per distinct width.
func Shared(workers int) *Pool {
	workers = clampWorkers(workers)
	if workers <= 1 {
		return nil
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if shared == nil {
		shared = make(map[int]*Pool)
	}
	p, ok := shared[workers]
	if !ok {
		p = New(workers)
		shared[workers] = p
	}
	return p
}

// SharedForks sums the fork-join dispatch counts across every shared pool —
// the process-wide parallel-kernel dispatch counter the metrics registry
// bridges as a CounterFunc. Serial (width-1) operations run inline without
// a pool and are intentionally not counted.
func SharedForks() uint64 {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	var total uint64
	for _, p := range shared {
		total += p.forks.Load()
	}
	return total
}
