package vecmath

import "sync/atomic"

// SIMD dispatch state. On amd64 builds without the purego tag,
// simd_amd64.go probes CPUID at init and, when AVX2 plus OS YMM-state
// support are present, routes the hot kernel bodies (Dot, AXPYDot, AXPY2,
// AXPYPair, XPBYInto, Dot2, DotNorm — and through them the *Multi block
// kernels, which delegate per column) to hand-written AVX2 assembly.
// Everywhere else the pure-Go bodies in generic.go run unconditionally.
//
// The toggle exists for tests that pin SIMD/generic equivalence. It is
// process-global and safe for concurrent use; in-flight kernels observe
// either path, both of which are correct (see generic.go for the exact
// bit-level contract).
var simdActive atomic.Bool

func init() { simdActive.Store(simdSupported) }

// SIMDSupported reports whether this build and CPU can run the assembly
// kernel bodies (amd64, no purego tag, AVX2 with OS-enabled YMM state).
func SIMDSupported() bool { return simdSupported }

// SIMDActive reports whether kernel dispatch currently routes to the
// assembly bodies.
func SIMDActive() bool { return simdActive.Load() }

// SetSIMD enables or disables the assembly bodies and reports the resulting
// state. Enabling is a no-op when unsupported: the result is what actually
// took effect, so callers can log it honestly.
func SetSIMD(on bool) bool {
	simdActive.Store(on && simdSupported)
	return simdActive.Load()
}
