// Package vecmath provides the dense linear-algebra kernels used across the
// repository: vector arithmetic, a deterministic random-number generator,
// modified Gram-Schmidt orthogonalization, small dense symmetric matrices,
// and a Jacobi eigensolver that serves as an exact oracle in tests.
//
// Everything here is allocation-conscious: the hot kernels write into
// caller-provided destinations so the iterative solvers built on top
// (conjugate gradients, Lanczos, power iteration) can run without garbage.
package vecmath

import (
	"fmt"
	"math"
)

// SIMDActive reports false: the kernels have one pure-Go body on every
// architecture.
//
// Deprecated: there is no assembly path to report on. Kept so existing
// callers that record it keep compiling.
func SIMDActive() bool { return false }

// Dot returns the inner product of a and b. The slices must have equal
// length. The sum runs in the fixed 4-lane order documented in generic.go,
// so the result is the same bits on every host.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return dot(a, b)
}

// Lanes is a dot product in progress, held in Dot's four lane
// accumulators (generic.go). Feeding one product block by block through
// Add, every block but the tail a multiple of 4 long, and ending with
// Finish on the tail gives exactly Dot's bits: Dot itself runs this way in
// one block. Many products can so share one pass over cache-sized blocks
// of their operands.
type Lanes [4]float64

// Add feeds a·b into l: element i of a block goes to lane i%4. The slices
// must have equal length, a multiple of 4.
func (l *Lanes) Add(a, b []float64) {
	if len(a) != len(b) || len(a)%4 != 0 {
		panic(fmt.Sprintf("vecmath: Lanes.Add lengths %d/%d, want equal multiples of 4", len(a), len(b)))
	}
	l.add(a, b)
}

// Finish returns the dot product: the lanes combined as (l0+l2)+(l1+l3),
// then the tail a·b, at most three elements, added left to right.
func (l *Lanes) Finish(a, b []float64) float64 {
	if len(a) != len(b) || len(a) > 3 {
		panic(fmt.Sprintf("vecmath: Lanes.Finish tail lengths %d/%d, want equal and at most 3", len(a), len(b)))
	}
	return l.finish(a, b)
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// NormInf returns the maximum absolute entry of v, or 0 for an empty slice.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Scale multiplies every entry of v by c in place.
func Scale(v []float64, c float64) {
	for i := range v {
		v[i] *= c
	}
}

// AXPY computes dst += alpha*x element-wise. dst and x must have equal length.
func AXPY(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("vecmath: AXPY length mismatch %d != %d", len(dst), len(x)))
	}
	for i, xv := range x {
		dst[i] += float64(alpha * xv)
	}
}

// Copy copies src into dst; the slices must have equal length.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vecmath: Copy length mismatch %d != %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// Zero sets every entry of v to 0.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every entry of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("vecmath: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Add computes dst = a + b element-wise.
func Add(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("vecmath: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// CenterMean subtracts the mean from every entry, making v orthogonal to the
// all-ones vector. Laplacian solvers use this to stay in range(L).
func CenterMean(v []float64) {
	m := Mean(v)
	for i := range v {
		v[i] -= m
	}
}

// Normalize scales v to unit Euclidean norm and returns the original norm.
// A zero vector is left unchanged and 0 is returned.
func Normalize(v []float64) float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	Scale(v, 1/n)
	return n
}

// Basis writes the signed indicator b_pq = e_p - e_q into dst (which is
// zeroed first). Effective-resistance formulas are all phrased in terms of
// this vector.
func Basis(dst []float64, p, q int) {
	Zero(dst)
	dst[p] = 1
	dst[q] = -1
}
