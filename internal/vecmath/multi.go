package vecmath

import "fmt"

// Multi-vector kernels: column-wise application of the fused single-vector
// kernels above to a block of vectors. Each column keeps its own independent
// accumulator and is processed in ascending index order, so column j of a
// multi kernel is bit-identical to the corresponding single-vector kernel on
// column j alone — the property the blocked conjugate-gradient solvers rely
// on for their column ≡ width-1 and masked ≡ independent guarantees. The win is
// not fewer memory passes (columns are distinct vectors) but one call — and,
// in the pooled variants in internal/kernel, one fork-join dispatch — per
// block instead of one per column.

func checkWidths(kernel string, b int, blocks ...[][]float64) {
	for _, blk := range blocks {
		if len(blk) != b {
			panic(fmt.Sprintf("vecmath: %s block width mismatch %d != %d", kernel, len(blk), b))
		}
	}
}

// DotMulti computes out[j] = Dot(a[j], b[j]) for every column.
func DotMulti(a, b [][]float64, out []float64) {
	checkWidths("DotMulti", len(a), b)
	for j := range a {
		out[j] = Dot(a[j], b[j])
	}
}

// DotNormMulti computes outAB[j], outBB[j] = DotNorm(a[j], b[j]) — the
// preconditioned inner product and squared residual norm every column of a
// blocked CG needs at entry.
func DotNormMulti(a, b [][]float64, outAB, outBB []float64) {
	checkWidths("DotNormMulti", len(a), b)
	for j := range a {
		outAB[j], outBB[j] = DotNorm(a[j], b[j])
	}
}

// Dot2Multi computes outAX[j], outAY[j] = Dot2(a[j], x[j], y[j]): two
// products against one shared operand in a single pass per column.
func Dot2Multi(a, x, y [][]float64, outAX, outAY []float64) {
	checkWidths("Dot2Multi", len(a), x, y)
	for j := range a {
		outAX[j], outAY[j] = Dot2(a[j], x[j], y[j])
	}
}

// AXPY2Multi performs the paired CG update x[j] += alpha[j]*p[j],
// r[j] -= alpha[j]*ap[j] per column and writes the squared norm of each
// updated residual into outRnSq.
func AXPY2Multi(x, r [][]float64, alpha []float64, p, ap [][]float64, outRnSq []float64) {
	checkWidths("AXPY2Multi", len(x), r, p, ap)
	for j := range x {
		outRnSq[j] = AXPY2(x[j], r[j], alpha[j], p[j], ap[j])
	}
}

// XPBYIntoMulti computes dst[j] = x[j] + beta[j]*dst[j] per column (the CG
// search-direction update across a block).
func XPBYIntoMulti(dst, x [][]float64, beta []float64) {
	checkWidths("XPBYIntoMulti", len(dst), x)
	for j := range dst {
		XPBYInto(dst[j], x[j], beta[j])
	}
}
