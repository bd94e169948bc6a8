package kernel

import (
	"fmt"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// Serial cutovers. Dispatching into the pool costs one mutex acquire, one
// atomic publication, and a join receive (~1-2µs on commodity hardware,
// measured by BenchmarkPoolDispatchOverhead), so tiny operations run inline
// instead. The SpMV threshold is expressed in units of work (nnz + 2n:
// one multiply-add per stored entry plus the diagonal term and store per
// row) and sits far below the pre-pool goroutine-spawn breakeven, which is
// what makes parallel SpMV profitable well under 100k nonzeros.
const (
	// SpMVCutover is the minimum SpMV work (nnz + 2n) worth forking.
	SpMVCutover = 16384
	// VecCutover is the minimum vector length worth forking for the
	// single-pass vector kernels (below it, memory bandwidth of one core
	// already saturates the pass).
	VecCutover = 32768
)

// --- SpMV ------------------------------------------------------------------

// lapMulShare computes worker w's rows of dst = (D - A) x over the
// nnz-balanced row partition in the job. Row accumulation order and the
// rounded float64(w*x) products match graph.CSR.LapMul exactly, so pooled
// and serial products are bit-identical.
func lapMulShare(p *Pool, w int) {
	j := &p.job
	c, x, dst := j.csr, j.x, j.dst
	for u := j.part[w]; u < j.part[w+1]; u++ {
		s := c.Degree[u] * x[u]
		for k := c.RowPtr[u]; k < c.RowPtr[u+1]; k++ {
			s -= float64(c.Weights[k] * x[c.ColIdx[k]])
		}
		dst[u] = s
	}
}

// adjMulShare is lapMulShare for the adjacency product dst = A x.
func adjMulShare(p *Pool, w int) {
	j := &p.job
	c, x, dst := j.csr, j.x, j.dst
	for u := j.part[w]; u < j.part[w+1]; u++ {
		var s float64
		for k := c.RowPtr[u]; k < c.RowPtr[u+1]; k++ {
			s += float64(c.Weights[k] * x[c.ColIdx[k]])
		}
		dst[u] = s
	}
}

// spmvSerial reports whether an SpMV on c should bypass the pool.
func (p *Pool) spmvSerial(c *graph.CSR, part []int) bool {
	return p == nil || len(part) != p.workers+1 || c.SpMVWork() < SpMVCutover
}

// checkLens panics (in the caller, with a diagnostic) on a vector length
// mismatch. The serial vecmath kernels validate on entry; the pooled paths
// must do the same before publishing a job, or the mismatch would surface
// as a bare index panic inside a worker goroutine and kill the process
// unrecoverably.
func checkLens(kernel string, n int, vecs ...[]float64) {
	for _, v := range vecs {
		if len(v) != n {
			panic(fmt.Sprintf("kernel: %s length mismatch: %d != %d", kernel, len(v), n))
		}
	}
}

// checkSpMV validates a pooled SpMV before its job is published: vector
// lengths must match the matrix and the partition must cover exactly
// [0, N) (boundaries are monotone by NNZPartition's construction, so the
// endpoints suffice). A partition built from a different CSR would
// otherwise leave rows silently stale or index out of range inside a
// worker goroutine.
func checkSpMV(kernel string, c *graph.CSR, part []int, dst, x []float64) {
	checkLens(kernel, c.N, dst, x)
	if part[0] != 0 || part[len(part)-1] != c.N {
		panic(fmt.Sprintf("kernel: %s partition [%d, %d] does not cover N=%d rows",
			kernel, part[0], part[len(part)-1], c.N))
	}
}

// LapMul computes dst = L x over the nnz-balanced row partition part
// (len Workers()+1, from graph.CSR.NNZPartition). A nil pool, a mismatched
// partition width, or sub-cutover work runs the serial kernel.
// Bit-identical to graph.CSR.LapMul for any partition.
func (p *Pool) LapMul(c *graph.CSR, part []int, dst, x []float64) {
	if p.spmvSerial(c, part) {
		c.LapMul(dst, x)
		return
	}
	checkSpMV("LapMul", c, part, dst, x)
	p.mu.Lock()
	p.job = job{csr: c, part: part, dst: dst, x: x}
	p.run(lapMulShare)
	p.mu.Unlock()
}

// AdjMul computes dst = A x over the nnz-balanced row partition part.
func (p *Pool) AdjMul(c *graph.CSR, part []int, dst, x []float64) {
	if p.spmvSerial(c, part) {
		c.AdjMul(dst, x)
		return
	}
	checkSpMV("AdjMul", c, part, dst, x)
	p.mu.Lock()
	p.job = job{csr: c, part: part, dst: dst, x: x}
	p.run(adjMulShare)
	p.mu.Unlock()
}

// --- Fused vector kernels --------------------------------------------------
//
// Parallel reductions accumulate one padded partial per worker and sum the
// partials in worker order: deterministic for a fixed pool width, though
// not bit-identical to the serial lane order (callers tolerate reduction
// rounding by construction — CG convergence checks, Rayleigh quotients).
// The element-wise kernels are bit-identical to their serial counterparts.
//
// Each share delegates its span to the corresponding vecmath kernel on
// subslices, so the pooled and serial paths always use the same innermost
// loops.

func dotShare(p *Pool, w int) {
	j := &p.job
	lo, hi := p.span(w, j.n)
	p.partial[w].a = vecmath.Dot(j.x[lo:hi], j.y[lo:hi])
}

func dot2Share(p *Pool, w int) {
	j := &p.job
	lo, hi := p.span(w, j.n)
	sx, sy := vecmath.Dot2(j.dst[lo:hi], j.x[lo:hi], j.y[lo:hi])
	p.partial[w].a = sx
	p.partial[w].b = sy
}

func axpy2Share(p *Pool, w int) {
	j := &p.job
	lo, hi := p.span(w, j.n)
	p.partial[w].a = vecmath.AXPY2(j.dst[lo:hi], j.z[lo:hi], j.alpha, j.x[lo:hi], j.y[lo:hi])
}

func xpbyShare(p *Pool, w int) {
	j := &p.job
	lo, hi := p.span(w, j.n)
	vecmath.XPBYInto(j.dst[lo:hi], j.x[lo:hi], j.beta)
}

// Dot returns the inner product of a and b, forking above the cutover.
func (p *Pool) Dot(a, b []float64) float64 {
	if p == nil || len(a) < VecCutover {
		return vecmath.Dot(a, b)
	}
	checkLens("Dot", len(a), b)
	p.mu.Lock()
	p.job = job{x: a, y: b, n: len(a)}
	p.run(dotShare)
	var s float64
	for w := 0; w < p.workers; w++ {
		s += p.partial[w].a
	}
	p.mu.Unlock()
	return s
}

// Dot2 returns (a·x, a·y) in one pass over the three vectors.
func (p *Pool) Dot2(a, x, y []float64) (ax, ay float64) {
	if p == nil || len(a) < VecCutover {
		return vecmath.Dot2(a, x, y)
	}
	checkLens("Dot2", len(a), x, y)
	p.mu.Lock()
	p.job = job{dst: a, x: x, y: y, n: len(a)}
	p.run(dot2Share)
	for w := 0; w < p.workers; w++ {
		ax += p.partial[w].a
		ay += p.partial[w].b
	}
	p.mu.Unlock()
	return ax, ay
}

// DotNorm returns (a·b, b·b) in one pass.
func (p *Pool) DotNorm(a, b []float64) (ab, bb float64) {
	if p == nil || len(a) < VecCutover {
		return vecmath.DotNorm(a, b)
	}
	return p.Dot2(b, a, b)
}

// AXPY2 performs the paired CG update x += alpha*pv, r -= alpha*ap and
// returns the squared norm of the updated r, all in one pass over the four
// vectors (replacing two AXPYs and a norm: three passes).
func (p *Pool) AXPY2(x, r []float64, alpha float64, pv, ap []float64) float64 {
	if p == nil || len(x) < VecCutover {
		return vecmath.AXPY2(x, r, alpha, pv, ap)
	}
	checkLens("AXPY2", len(x), r, pv, ap)
	p.mu.Lock()
	p.job = job{dst: x, z: r, x: pv, y: ap, alpha: alpha, n: len(x)}
	p.run(axpy2Share)
	var s float64
	for w := 0; w < p.workers; w++ {
		s += p.partial[w].a
	}
	p.mu.Unlock()
	return s
}

// XPBYInto computes dst = x + beta*dst element-wise (the CG search-
// direction update).
func (p *Pool) XPBYInto(dst, x []float64, beta float64) {
	if p == nil || len(dst) < VecCutover {
		vecmath.XPBYInto(dst, x, beta)
		return
	}
	checkLens("XPBYInto", len(dst), x)
	p.mu.Lock()
	p.job = job{dst: dst, x: x, beta: beta, n: len(dst)}
	p.run(xpbyShare)
	p.mu.Unlock()
}
