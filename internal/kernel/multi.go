package kernel

import (
	"fmt"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// Multi-vector kernels: one fork-join dispatch applies an operation to a
// whole block of columns. Each column keeps an independent accumulator over
// the same worker spans as the single-vector kernels, so column j of any
// pooled multi kernel is bit-identical to the corresponding pooled
// single-vector kernel on column j — and, below the cutovers, to the serial
// vecmath composition. That per-column equivalence is what lets the blocked
// CG solvers promise column ≡ width-1 and masked columns ≡ independent solves.
//
// Cutovers are per-column (same n thresholds as the single kernels): the
// dispatch amortizes over the block, but routing must match the
// single-vector decision at every width for the bit-identity contracts to
// hold across widths.

// checkMulti validates a block against a width and column length before a
// job is published (see checkLens for why validation must precede
// publication).
func checkMulti(kernel string, b, n int, blocks ...[][]float64) {
	for _, blk := range blocks {
		if len(blk) != b {
			panic(fmt.Sprintf("kernel: %s block width mismatch %d != %d", kernel, len(blk), b))
		}
		for _, col := range blk {
			if len(col) != n {
				panic(fmt.Sprintf("kernel: %s column length %d != %d", kernel, len(col), n))
			}
		}
	}
}

// --- Multi SpMV ------------------------------------------------------------

// lapMulMultiShare computes worker w's rows of dst[j] = L x[j] for every
// column, through the width-specialized unrolled range kernels (see
// graph.CSR.LapMulMultiRange). Per-row, per-column accumulation order
// matches lapMulShare (and CSR.LapMul) exactly.
func lapMulMultiShare(p *Pool, w int) {
	j := &p.job
	j.csr.LapMulMultiRange(j.mdst, j.mx, j.part[w], j.part[w+1])
}

// LapMulMulti computes dst[j] = L x[j] for every column over the
// nnz-balanced row partition, traversing the CSR structure once for the
// whole block. A single column is the pooled LapMul on the same partition;
// a nil pool, a mismatched partition, or sub-cutover work runs the serial
// graph.CSR.LapMulMulti. Each column is bit-identical to a LapMul of that
// column alone.
func (p *Pool) LapMulMulti(c *graph.CSR, part []int, dst, x [][]float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("kernel: LapMulMulti block widths %d/%d", len(dst), len(x)))
	}
	switch {
	case len(x) == 0:
		return
	case len(x) == 1:
		p.LapMul(c, part, dst[0], x[0])
		return
	case p.spmvSerial(c, part):
		c.LapMulMulti(dst, x)
		return
	}
	if len(x) > graph.MaxMulti {
		panic(fmt.Sprintf("kernel: LapMulMulti width %d exceeds MaxMulti=%d", len(x), graph.MaxMulti))
	}
	checkMulti("LapMulMulti", len(x), c.N, dst, x)
	if part[0] != 0 || part[len(part)-1] != c.N {
		panic(fmt.Sprintf("kernel: LapMulMulti partition [%d, %d] does not cover N=%d rows",
			part[0], part[len(part)-1], c.N))
	}
	p.mu.Lock()
	p.job = job{csr: c, part: part, mdst: dst, mx: x}
	p.run(lapMulMultiShare)
	p.mu.Unlock()
}

// --- Fused multi-vector reductions and updates -----------------------------

// The multi shares delegate each column's span to the single-vector
// vecmath kernels on subslices (same innermost loops as the single-vector
// shares, AVX2 included when active), keeping the per-column ≡
// single-vector bit-identity by construction.

func dotMultiShare(p *Pool, w int) {
	j := &p.job
	lo, hi := p.span(w, j.n)
	for col := range j.mx {
		p.partialM[w].a[col] = vecmath.Dot(j.mx[col][lo:hi], j.my[col][lo:hi])
	}
}

func dot2MultiShare(p *Pool, w int) {
	j := &p.job
	lo, hi := p.span(w, j.n)
	for col := range j.mdst {
		sx, sy := vecmath.Dot2(j.mdst[col][lo:hi], j.mx[col][lo:hi], j.my[col][lo:hi])
		p.partialM[w].a[col] = sx
		p.partialM[w].b[col] = sy
	}
}

func axpy2MultiShare(p *Pool, w int) {
	j := &p.job
	lo, hi := p.span(w, j.n)
	for col := range j.mx {
		p.partialM[w].a[col] = vecmath.AXPY2(
			j.mdst[col][lo:hi], j.mz[col][lo:hi], j.mscal[col], j.mx[col][lo:hi], j.my[col][lo:hi])
	}
}

func xpbyMultiShare(p *Pool, w int) {
	j := &p.job
	lo, hi := p.span(w, j.n)
	for col := range j.mdst {
		vecmath.XPBYInto(j.mdst[col][lo:hi], j.mx[col][lo:hi], j.mscal[col])
	}
}

// multiSerial reports whether a multi-vector kernel over b columns of
// length n should bypass the pool: same per-column threshold as the
// single-vector kernels, so routing matches at every width. Widths beyond
// the padMulti slot capacity also run serially (the serial kernels have no
// width cap).
func (p *Pool) multiSerial(b, n int) bool {
	return p == nil || n < VecCutover || b == 0 || b > graph.MaxMulti
}

// colLen returns the column length of a block (0 for an empty block).
func colLen(blk [][]float64) int {
	if len(blk) == 0 {
		return 0
	}
	return len(blk[0])
}

// DotMulti computes out[col] = a[col]·b[col] for every column in one
// dispatch.
func (p *Pool) DotMulti(a, b [][]float64, out []float64) {
	n := colLen(a)
	if p.multiSerial(len(a), n) {
		vecmath.DotMulti(a, b, out)
		return
	}
	checkMulti("DotMulti", len(a), n, b)
	p.mu.Lock()
	p.job = job{mx: a, my: b, n: n}
	p.run(dotMultiShare)
	for col := range a {
		var s float64
		for w := 0; w < p.workers; w++ {
			s += p.partialM[w].a[col]
		}
		out[col] = s
	}
	p.mu.Unlock()
}

// DotNormMulti computes outAB[col], outBB[col] = (a[col]·b[col],
// b[col]·b[col]) per column. Mirrors the single-vector DotNorm routing
// (which runs Dot2(b, a, b) on the pool).
func (p *Pool) DotNormMulti(a, b [][]float64, outAB, outBB []float64) {
	n := colLen(a)
	if p.multiSerial(len(a), n) {
		vecmath.DotNormMulti(a, b, outAB, outBB)
		return
	}
	p.Dot2Multi(b, a, b, outAB, outBB)
}

// Dot2Multi computes outAX[col], outAY[col] = (a[col]·x[col], a[col]·y[col])
// per column in one dispatch.
func (p *Pool) Dot2Multi(a, x, y [][]float64, outAX, outAY []float64) {
	n := colLen(a)
	if p.multiSerial(len(a), n) {
		vecmath.Dot2Multi(a, x, y, outAX, outAY)
		return
	}
	checkMulti("Dot2Multi", len(a), n, x, y)
	p.mu.Lock()
	p.job = job{mdst: a, mx: x, my: y, n: n}
	p.run(dot2MultiShare)
	for col := range a {
		var sx, sy float64
		for w := 0; w < p.workers; w++ {
			sx += p.partialM[w].a[col]
			sy += p.partialM[w].b[col]
		}
		outAX[col] = sx
		outAY[col] = sy
	}
	p.mu.Unlock()
}

// AXPY2Multi performs the paired CG update x[col] += alpha[col]*pv[col],
// r[col] -= alpha[col]*ap[col] per column and writes each updated residual's
// squared norm into outRnSq, all in one dispatch.
func (p *Pool) AXPY2Multi(x, r [][]float64, alpha []float64, pv, ap [][]float64, outRnSq []float64) {
	n := colLen(x)
	if p.multiSerial(len(x), n) {
		vecmath.AXPY2Multi(x, r, alpha, pv, ap, outRnSq)
		return
	}
	checkMulti("AXPY2Multi", len(x), n, r, pv, ap)
	p.mu.Lock()
	p.job = job{mdst: x, mz: r, mx: pv, my: ap, mscal: alpha, n: n}
	p.run(axpy2MultiShare)
	for col := range x {
		var s float64
		for w := 0; w < p.workers; w++ {
			s += p.partialM[w].a[col]
		}
		outRnSq[col] = s
	}
	p.mu.Unlock()
}

// XPBYIntoMulti computes dst[col] = x[col] + beta[col]*dst[col] per column
// in one dispatch.
func (p *Pool) XPBYIntoMulti(dst, x [][]float64, beta []float64) {
	n := colLen(dst)
	if p.multiSerial(len(dst), n) {
		vecmath.XPBYIntoMulti(dst, x, beta)
		return
	}
	checkMulti("XPBYIntoMulti", len(dst), n, x)
	p.mu.Lock()
	p.job = job{mdst: dst, mx: x, mscal: beta, n: n}
	p.run(xpbyMultiShare)
	p.mu.Unlock()
}
