// Package precond turns a spectral sparsifier into a preconditioner for
// Laplacian solves — the application that motivates the whole GRASS line:
// solving L_G x = b with conjugate gradients preconditioned by solves of
// the much sparser L_H converges in O(sqrt(kappa(L_G, L_H))) outer
// iterations, and a good sparsifier keeps that kappa small while the
// solves of L_H stay cheap.
//
// Factorize picks one of two regimes from H alone. When greedy
// minimum-degree elimination of L_H keeps every pivot's degree at
// maxPivotDegree or below, it keeps an exact LDLᵀ factor (grounded at one
// node per component), and each preconditioner application is one forward
// and one backward sweep. Otherwise it keeps nothing, and solves
// precondition with G's own Jacobi diagonal. Either way the solve is
// sparse.BlockCG, the stack's one CG loop: the exact factor is a fixed
// preconditioner, so no flexible variant is needed. Factorization is the
// shared, immutable half; each Solve (one right-hand side, a width-1 block)
// or SolveBlock call checks a pooled, goroutine-confined solve state
// (workspace, headers, counters) out of the factorization, so the warm
// solve path allocates nothing.
package precond

import "ingrass/internal/sparse"

// SolveResult reports a preconditioned solve.
type SolveResult struct {
	Outer sparse.CGResult
	// InnerUses counts applications of the exact factor (sparsifier
	// solves); 0 in the Jacobi regime.
	InnerUses int
}
