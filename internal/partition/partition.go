// Package partition implements spectral graph bisection — one of the
// downstream applications the paper's introduction motivates (network
// partitioning/decomposition). The Fiedler vector (eigenvector of the
// second-smallest Laplacian eigenvalue) is computed by inverse power
// iteration, each step one precond.Factorization solve of the graph's own
// Laplacian: CG preconditioned by its exact LDLᵀ factor, or by its Jacobi
// diagonal when elimination meets precond's pivot-degree cap. Thresholding
// the vector at its median yields a balanced cut whose weight approximates
// the sparsest balanced cut.
//
// The sparsifier connection: computing the Fiedler vector on the SPARSIFIER
// H instead of G costs a sparser factor (or proportionally fewer CG
// operations per iteration) and yields a near-identical partition whenever
// kappa(L_G, L_H) is small — demonstrated in the package tests and
// examples/partition.
package partition

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"ingrass/internal/graph"
	"ingrass/internal/precond"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// Options controls Fiedler-vector computation.
type Options struct {
	// MaxIters bounds inverse power iterations. Default 50.
	MaxIters int
	// Tol stops iteration when the iterate rotates by less than Tol
	// (1 - |<x_k, x_{k-1}>|). Default 1e-6.
	Tol float64
	// Solver configures the inner solves through g's factorization
	// (tolerance default 1e-6) and Laplacian-product parallelism and layout
	// (Solver.Workers and Solver.Format, frozen into g's operator for the
	// whole inverse power iteration).
	Solver solver.Options
	// Seed drives the random start vector.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Solver.Tol == 0 {
		o.Solver.Tol = 1e-6
	}
	return o
}

// Fiedler computes (an approximation of) the Fiedler vector of g by
// inverse power iteration: x <- normalize(project(L^+ x)). The smallest
// nonzero eigenvalue's eigenvector dominates because L^+ inverts the
// spectrum on the complement of ones. g must be connected. ctx is checked
// once per power iteration and threaded into the inner solves.
func Fiedler(ctx context.Context, g *graph.Graph, opts Options) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("partition: graph too small")
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("partition: graph must be connected")
	}
	o := opts.withDefaults()
	// g is factored and its Laplacian frozen once for every inner solve.
	fact, err := precond.Factorize(g, o.Solver)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	gOp := sparse.NewLapOperator(g)
	gOp.SetWorkers(o.Solver.Workers)
	gOp.SetFormat(o.Solver.Format)

	rng := vecmath.NewRNG(o.Seed + 0xF1ED)
	x := make([]float64, n)
	next := make([]float64, n)
	rng.FillNormal(x)
	vecmath.ProjectOutOnes(x)
	if vecmath.Normalize(x) == 0 {
		return nil, fmt.Errorf("partition: start vector collapsed")
	}
	for k := 0; k < o.MaxIters; k++ {
		if err := solver.CheckCancel(ctx); err != nil {
			return nil, err
		}
		// Loose inner solves only slow the outer convergence.
		_, _ = fact.Solve(ctx, gOp, next, x, o.Solver)
		// A cancelled inner solve leaves next = 0, which the Normalize
		// break below would misread as convergence; report it instead.
		if err := solver.CheckCancel(ctx); err != nil {
			return nil, err
		}
		vecmath.ProjectOutOnes(next)
		if vecmath.Normalize(next) == 0 {
			break
		}
		dot := vecmath.Dot(next, x)
		copy(x, next)
		if 1-math.Abs(dot) < o.Tol {
			break
		}
	}
	return x, nil
}

// Bisection is a two-way partition of a graph's nodes.
type Bisection struct {
	// Side[v] is 0 or 1.
	Side []int
	// CutWeight is the total weight of edges crossing the partition.
	CutWeight float64
	// Sizes counts nodes per side.
	Sizes [2]int
	// Conductance is CutWeight / min(vol0, vol1) with vol the sum of
	// weighted degrees on a side.
	Conductance float64
}

// Bisect spectrally bisects g: Fiedler vector, median threshold (exactly
// balanced on odd/even sizes up to one node).
func Bisect(ctx context.Context, g *graph.Graph, opts Options) (*Bisection, error) {
	fiedler, err := Fiedler(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	return SplitByVector(g, fiedler), nil
}

// BisectWithSparsifier computes the Fiedler vector on the sparsifier h but
// evaluates and returns the induced partition of g — the cheap-partitioning
// workflow the sparsifier enables. h must share g's node set.
func BisectWithSparsifier(ctx context.Context, g, h *graph.Graph, opts Options) (*Bisection, error) {
	if g.NumNodes() != h.NumNodes() {
		return nil, fmt.Errorf("partition: node count mismatch %d vs %d", g.NumNodes(), h.NumNodes())
	}
	fiedler, err := Fiedler(ctx, h, opts)
	if err != nil {
		return nil, err
	}
	return SplitByVector(g, fiedler), nil
}

// SplitByVector thresholds the given node scores at their median and
// evaluates the induced bisection of g.
func SplitByVector(g *graph.Graph, score []float64) *Bisection {
	n := g.NumNodes()
	b := &Bisection{Side: make([]int, n)}
	for rank, v := range byScore(score[:n]) {
		if rank >= n/2 {
			b.Side[v] = 1
		}
	}
	return evaluate(g, b)
}

// byScore returns the node ids ordered by score, lowest first, then by id.
func byScore(score []float64) []int {
	idx := make([]int, len(score))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(score[a], score[b]), cmp.Compare(a, b))
	})
	return idx
}

// evaluate fills the cut metrics of b.
func evaluate(g *graph.Graph, b *Bisection) *Bisection {
	var vol [2]float64
	b.Sizes = [2]int{}
	for v, s := range b.Side {
		b.Sizes[s]++
		vol[s] += g.WeightedDegree(v)
	}
	b.CutWeight = 0
	for _, e := range g.All() {
		if b.Side[e.U] != b.Side[e.V] {
			b.CutWeight += e.W
		}
	}
	minVol := vol[0]
	if vol[1] < minVol {
		minVol = vol[1]
	}
	if minVol > 0 {
		b.Conductance = b.CutWeight / minVol
	}
	return b
}
