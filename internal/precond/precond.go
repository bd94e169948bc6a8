// Package precond turns a spectral sparsifier into a preconditioner for
// Laplacian solves — the application that motivates the whole GRASS line:
// solving L_G x = b with conjugate gradients preconditioned by (inexact)
// solves of the much sparser L_H converges in O(sqrt(kappa(L_G, L_H)))
// outer iterations, and a good sparsifier keeps that kappa small while the
// inner solves stay cheap.
//
// The preconditioner runs a truncated blocked Jacobi-PCG on the sparsifier
// per application, so it is mildly nonlinear; the outer solve is
// sparse.BlockFlexibleCG. Factorization is the shared, immutable half; each
// Solve (one right-hand side, a width-1 block) or SolveBlock call checks a
// pooled, goroutine-confined solve state (workspace, headers, counters) out
// of the factorization, so the warm solve path allocates nothing.
package precond

import "ingrass/internal/sparse"

// SolveResult reports a preconditioned solve.
type SolveResult struct {
	Outer     sparse.CGResult
	InnerUses int
}
