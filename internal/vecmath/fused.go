package vecmath

import "fmt"

// Fused kernels: each replaces two or three of the primitive passes above
// with a single traversal. The conjugate-gradient inner loops are memory-
// bound — every separate Dot/AXPY/Norm2 call streams n-length vectors
// through the cache again — so fusing the update with the reduction that
// consumes it roughly halves the memory passes per iteration. Element-wise
// results match the unfused compositions exactly, so swapping a fused
// kernel in is bit-for-bit neutral on the vectors it writes; the property
// tests in fused_test.go pin that equivalence. Every reduction runs in the
// one 4-lane order documented in generic.go, the same order as Dot, so a
// fused reduction equals Dot over the updated vector bit for bit.
//
// Each exported kernel validates lengths, then calls its one body in
// generic.go.

// AXPYDot computes dst += alpha*x and returns Dot(dst, y) over the updated
// dst, in one pass. With y = dst it yields the squared norm of the update —
// the residual-update-plus-convergence-check of CG — and in the Lanczos
// reorthogonalization chain it folds each projection's AXPY into the next
// basis vector's dot product.
func AXPYDot(dst []float64, alpha float64, x, y []float64) float64 {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic(fmt.Sprintf("vecmath: AXPYDot length mismatch %d/%d/%d", len(dst), len(x), len(y)))
	}
	return axpyDot(dst, alpha, x, y)
}

// AXPY2 performs the paired CG iterate/residual update
//
//	x += alpha*p ; r -= alpha*ap
//
// and returns the squared Euclidean norm of the updated r. One pass over
// four vectors replaces two AXPYs plus a Norm2 (three passes).
func AXPY2(x, r []float64, alpha float64, p, ap []float64) float64 {
	if len(x) != len(r) || len(x) != len(p) || len(x) != len(ap) {
		panic(fmt.Sprintf("vecmath: AXPY2 length mismatch %d/%d/%d/%d", len(x), len(r), len(p), len(ap)))
	}
	return axpy2(x, r, alpha, p, ap)
}

// AXPYPair computes dst += alpha*x + beta*y in one pass (the Lanczos
// three-term recurrence step, previously two AXPYs).
func AXPYPair(dst []float64, alpha float64, x []float64, beta float64, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic(fmt.Sprintf("vecmath: AXPYPair length mismatch %d/%d/%d", len(dst), len(x), len(y)))
	}
	axpyPair(dst, alpha, x, beta, y)
}

// XPBYInto computes dst = x + beta*dst element-wise — the CG search-
// direction update p = z + beta*p that previously lived as an inline loop
// in cg.go.
func XPBYInto(dst, x []float64, beta float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("vecmath: XPBYInto length mismatch %d != %d", len(dst), len(x)))
	}
	xpbyInto(dst, x, beta)
}

// Dot2 returns (a·x, a·y) in one pass over the three vectors.
func Dot2(a, x, y []float64) (ax, ay float64) {
	if len(a) != len(x) || len(a) != len(y) {
		panic(fmt.Sprintf("vecmath: Dot2 length mismatch %d/%d/%d", len(a), len(x), len(y)))
	}
	return dot2(a, x, y)
}

// DotNorm returns (a·b, b·b) in one pass: the preconditioned-residual inner
// product and the squared residual norm that CG needs together at entry,
// previously three separate passes (Dot plus two Norm2 evaluations).
func DotNorm(a, b []float64) (ab, bb float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: DotNorm length mismatch %d != %d", len(a), len(b)))
	}
	return dotNorm(a, b)
}
