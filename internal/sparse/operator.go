// Package sparse provides the iterative linear-algebra substrate: abstract
// symmetric operators, the one conjugate-gradient loop (BlockCG — a single
// right-hand side is a width-1 block) with Jacobi preconditioning, and the
// Laplacian operator and its projection onto the orthogonal complement of
// the constant vector (a connected Laplacian's null space). Every solve in
// the stack runs through BlockCG by way of precond.Factorization, which
// hands it either the exact factor of a sparsifier L_H or the system
// operator's own Jacobi diagonal: served solves and resistances,
// condition-number estimates, and spectral partitioning.
//
// Every solve entry point takes the request-scoped contract from
// internal/solver: a context (checked once per iteration), a unified
// solver.Options, and a pooled solver.Workspace for scratch vectors.
package sparse

import (
	"time"

	"ingrass/internal/graph"
	"ingrass/internal/kernel"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// Operator is a symmetric linear operator y = A x applied matrix-free.
type Operator interface {
	// Dim returns the operator's dimension n.
	Dim() int
	// Apply computes dst = A x; dst and x have length Dim() and must not alias.
	Apply(dst, x []float64)
}

// Jacobi is a diagonal preconditioner. Zero diagonal entries (isolated
// nodes) pass through unscaled.
type Jacobi struct {
	inv []float64
}

// NewJacobi builds the diagonal preconditioner for the given diagonal.
func NewJacobi(diag []float64) *Jacobi {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d > 0 {
			inv[i] = 1 / d
		} else {
			inv[i] = 1
		}
	}
	return &Jacobi{inv: inv}
}

// PrecondBlock computes dst[c] = D^{-1} src[c] for every column, so Jacobi
// serves BlockCG directly (precond, when H's elimination stops at its
// pivot-degree cap).
func (j *Jacobi) PrecondBlock(dst, src [][]float64) {
	for c := range dst {
		d := dst[c]
		s, inv := src[c][:len(d)], j.inv[:len(d)]
		for i := range d {
			d[i] = inv[i] * s[i]
		}
	}
}

// LapOperator wraps a CSR graph view as its Laplacian operator, optionally
// applying rows in parallel through a persistent kernel worker pool.
// NewLapOperator also freezes the operator's Jacobi preconditioner and owns
// the workspace pool that all solves against this operator draw scratch
// from.
//
// Parallelism is frozen with SetWorkers before the operator is shared:
// it pins the kernel pool and precomputes the nnz-balanced row partition
// once, so every subsequent Apply dispatches without allocating and
// concurrent solves all observe the same degree. Storage layout is frozen
// the same way with SetFormat: choosing SELL rebuilds the operator arrays —
// CSR, the sliced SELL view, and both partition tables — inside one
// page-aligned kernel.Arena block, and every subsequent Apply/ApplyBlock
// dispatches over the sliced layout. All products stay bit-identical to
// serial CSR regardless of format or parallelism.
type LapOperator struct {
	CSR *graph.CSR

	workers int
	kern    *kernel.Pool // nil when serial
	part    []int        // nnz-balanced row partition, len kern.Workers()+1

	sell      *graph.SELL   // non-nil iff the frozen format is SELL
	chunkPart []int         // slot-balanced chunk partition (SELL + pool only)
	arena     *kernel.Arena // owns the frozen arrays when format is SELL
	padRatio  float64       // predicted (CSR) or actual (SELL) padding ratio

	// spmvObs, when set, observes the wall time of every Apply/ApplyBlock —
	// the service layer bridges it into the per-format SpMV histogram. Nil
	// (the default) adds no timing calls to the hot path.
	spmvObs func(time.Duration)

	jac  *Jacobi
	pool *solver.Pool
}

// Freeze-time auto-format heuristic: SELL pays off when the operator is
// big enough for layout to matter and the σ-sorted padding stays a small
// fraction of the streamed slots. Above the padding cutoff, the wasted
// bandwidth on padded slots outweighs the regular-access win and CSR is
// kept.
const (
	sellAutoMinN       = 512
	sellAutoMaxPadding = 0.35
)

// NewLapOperator freezes g and returns its (serial) Laplacian operator.
// Call SetWorkers before sharing it to enable parallel application.
func NewLapOperator(g *graph.Graph) *LapOperator {
	csr := graph.NewCSR(g)
	return &LapOperator{CSR: csr, jac: NewJacobi(csr.Degree), pool: solver.NewPool(csr.N)}
}

// SetWorkers freezes the operator's parallelism degree: it resolves the
// shared kernel pool for the (GOMAXPROCS-clamped) count and precomputes the
// nnz-balanced row partition the pooled SpMV dispatches over. workers <= 1
// keeps the operator serial. Must be called before the operator is shared
// across goroutines; the frozen-Workers contract (solver.Options.Workers)
// exists exactly so this never races with a solve.
func (l *LapOperator) SetWorkers(workers int) {
	l.kern = kernel.Shared(workers)
	l.workers = l.kern.Workers()
	if l.kern != nil {
		l.part = l.CSR.NNZPartition(l.workers)
		if l.sell != nil {
			l.chunkPart = l.sell.NNZChunkPartition(l.workers)
		}
	} else {
		l.part = nil
		l.chunkPart = nil
	}
}

// SetFormat freezes the operator's sparse storage layout. FormatAuto picks
// SELL when the operator is large enough (N >= 512) and the predicted
// σ-sorted padding ratio stays under the cutoff; FormatCSR/FormatSELL force
// the choice. Choosing SELL rebuilds every frozen array — the CSR, the
// sliced view, and the partition tables — inside one page-aligned arena
// block sized exactly from the footprint predictors, so the whole operator
// is a single contiguous allocation released as a unit when its snapshot
// generation is dropped. Like SetWorkers, call before the operator is
// shared; order relative to SetWorkers does not matter (each refreshes the
// partitions the other depends on).
func (l *LapOperator) SetFormat(f solver.Format) {
	bytes, pad := graph.SellFootprint(l.CSR, 0)
	l.padRatio = pad
	use := f == solver.FormatSELL ||
		(f == solver.FormatAuto && l.CSR.N >= sellAutoMinN && pad <= sellAutoMaxPadding)
	if !use {
		l.sell = nil
		l.chunkPart = nil
		l.arena = nil
		return
	}
	// Exact payload plus per-allocation cache-line padding (one line per
	// array) and the partition tables.
	slack := 16*64 + 16*(l.workers+2)
	arena := kernel.NewArena(l.CSR.ArenaBytes() + bytes + slack)
	l.CSR = l.CSR.CompactInto(arena)
	l.sell = graph.NewSELL(l.CSR, 0, arena)
	l.arena = arena
	l.padRatio = l.sell.PaddingRatio()
	if l.kern != nil {
		l.part = l.CSR.NNZPartition(l.workers)
		l.chunkPart = l.sell.NNZChunkPartition(l.workers)
	}
}

// Format reports the frozen storage layout (FormatCSR until SetFormat
// selects SELL).
func (l *LapOperator) Format() solver.Format {
	if l.sell != nil {
		return solver.FormatSELL
	}
	return solver.FormatCSR
}

// PaddingRatio reports the SELL padding ratio: actual for a SELL-frozen
// operator, predicted (from the footprint pass) after any SetFormat call,
// 0 before one.
func (l *LapOperator) PaddingRatio() float64 { return l.padRatio }

// ArenaStats reports the arena backing a SELL-frozen operator: payload
// bytes handed out, bytes reserved, and block count (1 means fully
// contiguous). All zero for CSR-frozen operators.
func (l *LapOperator) ArenaStats() (used, reserved, blocks int) {
	if l.arena == nil {
		return 0, 0, 0
	}
	return l.arena.Used(), l.arena.Reserved(), l.arena.Blocks()
}

// SetSpMVObserver installs a wall-time observer called after every
// Apply/ApplyBlock (the service layer points it at the per-format SpMV
// duration histogram). A nil observer (the default) keeps the hot path
// free of timing calls. Set before the operator is shared.
func (l *LapOperator) SetSpMVObserver(f func(time.Duration)) { l.spmvObs = f }

// Kernels returns the operator's kernel pool (nil when serial), letting the
// iterative solvers run their fused vector kernels on the same workers.
func (l *LapOperator) Kernels() *kernel.Pool { return l.kern }

// Dim returns the node count.
func (l *LapOperator) Dim() int { return l.CSR.N }

// Apply computes dst = L x over the frozen layout, through the kernel pool
// when the operator was frozen parallel and the product is above the serial
// cutover. Bit-identical to serial CSR in every configuration.
func (l *LapOperator) Apply(dst, x []float64) {
	if l.spmvObs != nil {
		start := time.Now()
		l.applySpMV(dst, x)
		l.spmvObs(time.Since(start))
		return
	}
	l.applySpMV(dst, x)
}

func (l *LapOperator) applySpMV(dst, x []float64) {
	if l.sell != nil {
		l.kern.LapMulSELL(l.sell, l.chunkPart, dst, x)
		return
	}
	l.kern.LapMul(l.CSR, l.part, dst, x)
}

// ApplyBlock computes dst[j] = L x[j] for a block of vectors in one
// structure traversal (see graph.CSR.LapMulMulti and graph.SELL.LapMulMulti),
// through the kernel pool when the operator was frozen parallel. Each
// column is bit-identical to Apply on that column alone.
func (l *LapOperator) ApplyBlock(dst, x [][]float64) {
	if l.spmvObs != nil {
		start := time.Now()
		l.applyBlockSpMV(dst, x)
		l.spmvObs(time.Since(start))
		return
	}
	l.applyBlockSpMV(dst, x)
}

func (l *LapOperator) applyBlockSpMV(dst, x [][]float64) {
	if l.sell != nil {
		l.kern.LapMulMultiSELL(l.sell, l.chunkPart, dst, x)
		return
	}
	l.kern.LapMulMulti(l.CSR, l.part, dst, x)
}

// Jacobi returns the operator's frozen diagonal preconditioner.
func (l *LapOperator) Jacobi() *Jacobi { return l.jac }

// Workspaces returns the operator's scratch pool (vectors of length Dim).
// The pool is safe for concurrent use; each checked-out workspace is
// confined to one solve call tree.
func (l *LapOperator) Workspaces() *solver.Pool { return l.pool }

// KernelHost is implemented by operators that carry a persistent kernel
// worker pool. The iterative solvers probe for it so their fused vector
// kernels run on the same workers as the operator's SpMV; a nil pool (or an
// operator without one) means serial kernels.
type KernelHost interface {
	Kernels() *kernel.Pool
}

// KernelsOf returns the kernel pool behind op (ProjectedOperator forwards
// to its inner operator via its own Kernels method), or nil for operators
// without one.
func KernelsOf(op Operator) *kernel.Pool {
	if h, ok := op.(KernelHost); ok {
		return h.Kernels()
	}
	return nil
}

// ProjectedOperator wraps an operator with pre/post projection onto the
// complement of the all-ones vector, making a singular Laplacian behave as
// a definite operator on its range. All CG solves against Laplacians go
// through this wrapper.
type ProjectedOperator struct {
	Inner Operator
}

// Dim returns the inner dimension.
func (p *ProjectedOperator) Dim() int { return p.Inner.Dim() }

// Kernels forwards the inner operator's kernel pool, if any.
func (p *ProjectedOperator) Kernels() *kernel.Pool { return KernelsOf(p.Inner) }

// Apply computes dst = P A P x where P = I - 11'/n.
func (p *ProjectedOperator) Apply(dst, x []float64) {
	// A Laplacian already annihilates the constant component of x and
	// produces mean-zero output, but projecting both sides guards against
	// numerical drift accumulating across hundreds of CG iterations.
	p.Inner.Apply(dst, x)
	vecmath.CenterMean(dst)
}

// ApplyBlock is Apply over a block: one inner block application (a single
// CSR traversal when the inner operator supports it) followed by the
// per-column projection.
func (p *ProjectedOperator) ApplyBlock(dst, x [][]float64) {
	if bo, ok := p.Inner.(BlockOperator); ok {
		bo.ApplyBlock(dst, x)
	} else {
		for j := range dst {
			p.Inner.Apply(dst[j], x[j])
		}
	}
	for j := range dst {
		vecmath.CenterMean(dst[j])
	}
}

// FuncOperator adapts a closure to the Operator interface; used for
// composite operators such as the condition-number pencil.
type FuncOperator struct {
	N  int
	Fn func(dst, x []float64)
}

// Dim returns N.
func (f *FuncOperator) Dim() int { return f.N }

// Apply invokes the closure.
func (f *FuncOperator) Apply(dst, x []float64) { f.Fn(dst, x) }

// DenseLaplacian materializes the Laplacian of g as a dense matrix.
// Intended for test oracles on small graphs only.
func DenseLaplacian(g *graph.Graph) *vecmath.Dense {
	n := g.NumNodes()
	m := vecmath.NewDense(n, n)
	for _, e := range g.All() {
		m.Add(e.U, e.U, e.W)
		m.Add(e.V, e.V, e.W)
		m.Add(e.U, e.V, -e.W)
		m.Add(e.V, e.U, -e.W)
	}
	return m
}
