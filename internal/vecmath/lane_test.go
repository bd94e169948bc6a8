package vecmath

import (
	"math"
	"testing"
)

// Lane oracle: the reference for the one reduction order every kernel uses
// (generic.go) — element i feeds lane i%4 over the first len&^3 elements,
// lanes reduce as (l0+l2)+(l1+l3), the tail folds in left-to-right. Every
// reduction must match its oracle bit for bit; this is what makes the
// kernels' floating-point behaviour a documented contract instead of an
// accident, and what lets a replica or a recovering process rebuild the
// setup phase's bits on any host.
func laneOracle(n int, product func(i int) float64) float64 {
	var lane [4]float64
	v := n &^ 3
	for i := 0; i < v; i++ {
		lane[i%4] += float64(product(i))
	}
	s := (lane[0] + lane[2]) + (lane[1] + lane[3])
	for i := v; i < n; i++ {
		s += float64(product(i))
	}
	return s
}

var laneSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31, 100, 1000, 4097}

func laneVec(seed uint64, n int) []float64 {
	r := NewRNG(seed)
	v := make([]float64, n)
	r.FillNormal(v)
	for i := range v {
		if i%7 == 3 {
			v[i] = -v[i]
		}
	}
	return v
}

// Each case runs one reduction kernel on fresh length-n inputs and returns
// what it computed next to the oracle: the reductions first, then, for the
// kernels that update vectors, every updated element next to the plain
// per-element expression (two roundings, never a fused multiply-add).
func TestReductionKernelsMatchLaneOracle(t *testing.T) {
	const alpha = -1.375
	cases := []struct {
		name string
		run  func(n int) (got, want []float64)
	}{
		{"Dot", func(n int) (got, want []float64) {
			a, b := laneVec(uint64(n)+1, n), laneVec(uint64(n)+2, n)
			return []float64{Dot(a, b)}, []float64{laneOracle(n, func(i int) float64 { return a[i] * b[i] })}
		}},
		{"Lanes", func(n int) (got, want []float64) {
			// Fed in blocks of 8, as a blocked caller interleaves products.
			a, b := laneVec(uint64(n)+1, n), laneVec(uint64(n)+2, n)
			var l Lanes
			v := n &^ 3
			for lo := 0; lo < v; lo += 8 {
				hi := min(lo+8, v)
				l.Add(a[lo:hi], b[lo:hi])
			}
			return []float64{l.Finish(a[v:], b[v:])}, []float64{laneOracle(n, func(i int) float64 { return a[i] * b[i] })}
		}},
		{"Dot2", func(n int) (got, want []float64) {
			a, x, y := laneVec(uint64(n)+3, n), laneVec(uint64(n)+4, n), laneVec(uint64(n)+5, n)
			ax, ay := Dot2(a, x, y)
			return []float64{ax, ay}, []float64{
				laneOracle(n, func(i int) float64 { return a[i] * x[i] }),
				laneOracle(n, func(i int) float64 { return a[i] * y[i] }),
			}
		}},
		{"DotNorm", func(n int) (got, want []float64) {
			a, b := laneVec(uint64(n)+6, n), laneVec(uint64(n)+7, n)
			ab, bb := DotNorm(a, b)
			return []float64{ab, bb}, []float64{
				laneOracle(n, func(i int) float64 { return a[i] * b[i] }),
				laneOracle(n, func(i int) float64 { return b[i] * b[i] }),
			}
		}},
		{"AXPYDot", func(n int) (got, want []float64) {
			dst := laneVec(uint64(n)+8, n)
			x, y := laneVec(uint64(n)+9, n), laneVec(uint64(n)+10, n)
			ref := make([]float64, n)
			for i := range ref {
				ref[i] = dst[i] + float64(alpha*x[i])
			}
			s := AXPYDot(dst, alpha, x, y)
			return append([]float64{s}, dst...),
				append([]float64{laneOracle(n, func(i int) float64 { return ref[i] * y[i] })}, ref...)
		}},
		{"AXPY2", func(n int) (got, want []float64) {
			x, r := laneVec(uint64(n)+11, n), laneVec(uint64(n)+12, n)
			p, ap := laneVec(uint64(n)+13, n), laneVec(uint64(n)+14, n)
			xr, rr := make([]float64, n), make([]float64, n)
			for i := range xr {
				xr[i] = x[i] + float64(alpha*p[i])
				rr[i] = r[i] - float64(alpha*ap[i])
			}
			s := AXPY2(x, r, alpha, p, ap)
			return append(append([]float64{s}, x...), r...),
				append(append([]float64{laneOracle(n, func(i int) float64 { return rr[i] * rr[i] })}, xr...), rr...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range laneSizes {
				got, want := tc.run(n)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d: output %d is %x, oracle %x", n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// The element-wise kernels must equal their plain per-element expressions
// for every length, signed zeros included.
func TestAXPYPairAndXPBYIntoBitIdentical(t *testing.T) {
	const alpha, beta = 2.5, -0.3125
	for _, n := range laneSizes {
		dst := laneVec(uint64(n)+15, n)
		x, y := laneVec(uint64(n)+16, n), laneVec(uint64(n)+17, n)
		if n > 2 {
			dst[1], x[1], y[1] = math.Copysign(0, -1), 0, math.Copysign(0, -1)
		}
		ref := append([]float64(nil), dst...)
		for i := range ref {
			ref[i] += float64(alpha*x[i]) + float64(beta*y[i])
		}
		AXPYPair(dst, alpha, x, beta, y)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("n=%d: AXPYPair dst[%d] %x != %x", n, i, math.Float64bits(dst[i]), math.Float64bits(ref[i]))
			}
		}

		dst2 := laneVec(uint64(n)+18, n)
		x2 := laneVec(uint64(n)+19, n)
		if n > 2 {
			dst2[2], x2[2] = 0, math.Copysign(0, -1)
		}
		ref2 := append([]float64(nil), dst2...)
		for i := range ref2 {
			ref2[i] = x2[i] + float64(beta*ref2[i])
		}
		XPBYInto(dst2, x2, beta)
		for i := range dst2 {
			if math.Float64bits(dst2[i]) != math.Float64bits(ref2[i]) {
				t.Fatalf("n=%d: XPBYInto dst[%d] %x != %x", n, i, math.Float64bits(dst2[i]), math.Float64bits(ref2[i]))
			}
		}
	}
}
