package vecmath

import (
	"testing"
	"testing/quick"
)

// The fused kernels promise bit-for-bit agreement with the unfused
// compositions they replace: element-wise expressions are identical and
// reductions accumulate in the same lane order as Dot. These fuzz-style
// property tests pin that across random lengths and contents (including
// zeros, denormal-ish magnitudes, and sign mixes from the generator).

// fvec derives a deterministic pseudo-random vector from a seed.
func fvec(seed uint64, n int) []float64 {
	r := NewRNG(seed)
	v := make([]float64, n)
	r.FillNormal(v)
	// Sprinkle exact zeros and huge/tiny magnitudes.
	for i := 0; i < n; i += 7 {
		v[i] = 0
	}
	for i := 3; i < n; i += 11 {
		v[i] *= 1e150
	}
	for i := 5; i < n; i += 13 {
		v[i] *= 1e-150
	}
	return v
}

func quickCfg() *quick.Config { return &quick.Config{MaxCount: 60} }

func TestAXPYDotMatchesUnfused(t *testing.T) {
	f := func(seed uint64, szRaw uint8, alpha float64) bool {
		n := int(szRaw)%257 + 1
		dst0 := fvec(seed, n)
		x := fvec(seed+1, n)
		y := fvec(seed+2, n)

		fused := append([]float64(nil), dst0...)
		got := AXPYDot(fused, alpha, x, y)

		unfused := append([]float64(nil), dst0...)
		AXPY(unfused, alpha, x)
		want := Dot(unfused, y)

		for i := range fused {
			if fused[i] != unfused[i] {
				return false
			}
		}
		return got == want || (got != got && want != want) // NaN == NaN
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestAXPY2MatchesUnfused(t *testing.T) {
	f := func(seed uint64, szRaw uint8, alpha float64) bool {
		n := int(szRaw)%257 + 1
		x0, r0 := fvec(seed, n), fvec(seed+1, n)
		p, ap := fvec(seed+2, n), fvec(seed+3, n)

		x1 := append([]float64(nil), x0...)
		r1 := append([]float64(nil), r0...)
		got := AXPY2(x1, r1, alpha, p, ap)

		x2 := append([]float64(nil), x0...)
		r2 := append([]float64(nil), r0...)
		AXPY(x2, alpha, p)
		AXPY(r2, -alpha, ap)
		want := Dot(r2, r2)

		for i := range x1 {
			if x1[i] != x2[i] || r1[i] != r2[i] {
				return false
			}
		}
		return got == want || (got != got && want != want)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestAXPYPairMatchesUnfused(t *testing.T) {
	f := func(seed uint64, szRaw uint8, alpha, beta float64) bool {
		n := int(szRaw)%257 + 1
		dst0 := fvec(seed, n)
		x, y := fvec(seed+1, n), fvec(seed+2, n)

		fused := append([]float64(nil), dst0...)
		AXPYPair(fused, alpha, x, beta, y)

		// The fused expression is dst + (alpha*x + beta*y), which is NOT
		// the same rounding as two sequential AXPYs; compare against the
		// matching single-pass composition.
		for i := range fused {
			want := dst0[i] + (float64(alpha*x[i]) + float64(beta*y[i]))
			if fused[i] != want && !(fused[i] != fused[i] && want != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestXPBYIntoMatchesInlineLoop(t *testing.T) {
	f := func(seed uint64, szRaw uint8, beta float64) bool {
		n := int(szRaw)%257 + 1
		dst0 := fvec(seed, n)
		x := fvec(seed+1, n)

		fused := append([]float64(nil), dst0...)
		XPBYInto(fused, x, beta)
		for i := range fused {
			want := x[i] + float64(beta*dst0[i]) // the loop cg.go used to inline
			if fused[i] != want && !(fused[i] != fused[i] && want != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestDot2AndDotNormMatchUnfused(t *testing.T) {
	f := func(seed uint64, szRaw uint8) bool {
		n := int(szRaw)%257 + 1
		a, x, y := fvec(seed, n), fvec(seed+1, n), fvec(seed+2, n)

		ax, ay := Dot2(a, x, y)
		if ax != Dot(a, x) || ay != Dot(a, y) {
			return false
		}
		ab, bb := DotNorm(a, x)
		return ab == Dot(a, x) && bb == Dot(x, x)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestFusedKernelPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AXPY2 must panic on length mismatch")
		}
	}()
	AXPY2(make([]float64, 3), make([]float64, 4), 1, make([]float64, 3), make([]float64, 3))
}
