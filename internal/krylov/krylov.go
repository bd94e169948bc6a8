// Package krylov implements the scalable spectral machinery of the paper's
// setup phase: Krylov-subspace approximation of Laplacian eigenvectors
// (paper Eq. 3) used for fast effective-resistance estimation, plus a
// symmetric Lanczos iteration used for extreme-eigenvalue bounds.
//
// The resistance estimator never computes true eigenpairs. It builds an
// orthonormal basis u~_1..u~_m of the Krylov space of the (degree-
// normalized) adjacency operator, projects out the constant vector, and
// evaluates
//
//	R(p,q) ~= sum_i (u~_i' b_pq)^2 / (u~_i' L u~_i),
//
// which is Eq. (2) with Ritz vectors in place of eigenvectors. Per query
// the cost is O(m) with m = O(log N).
package krylov

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ingrass/internal/graph"
	"ingrass/internal/kernel"
	"ingrass/internal/vecmath"
)

// Config controls resistance-embedding construction.
type Config struct {
	// Order m is the Krylov subspace dimension. If 0, a default of
	// ceil(log2(N)) + 4 clamped to [8, 32] is used.
	Order int
	// Starts is the number of independent random start vectors whose Krylov
	// chains are concatenated before orthonormalization; more starts give a
	// richer subspace at proportional cost. Default 2.
	Starts int
	// Seed drives the deterministic RNG for start vectors.
	Seed uint64
	// Workers bounds the goroutines used for batch estimation; 0 means
	// GOMAXPROCS.
	Workers int
}

func (c Config) withDefaults(n int) Config {
	if c.Order == 0 {
		m := 4
		for s := n; s > 1; s >>= 1 {
			m++
		}
		if m < 8 {
			m = 8
		}
		if m > 32 {
			m = 32
		}
		c.Order = m
	}
	if c.Starts <= 0 {
		c.Starts = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Embedding is a per-node coordinate table in which squared Euclidean
// distance approximates effective resistance:
//
//	R(p,q) ~= || coord(p) - coord(q) ||^2.
//
// Coordinates are the Ritz vectors scaled by 1/sqrt(Rayleigh quotient).
type Embedding struct {
	N    int
	Dims int
	// coords is node-major: coords[v*Dims : (v+1)*Dims].
	coords []float64
}

// Coord returns node v's embedding row. Callers must not modify it.
func (e *Embedding) Coord(v int) []float64 {
	return e.coords[v*e.Dims : (v+1)*e.Dims]
}

// Resistance returns the embedded resistance estimate between p and q.
func (e *Embedding) Resistance(p, q int) float64 {
	if p == q {
		return 0
	}
	cp := e.Coord(p)
	cq := e.Coord(q)
	var s float64
	for i, a := range cp {
		d := a - cq[i]
		s += float64(d * d)
	}
	return s
}

// EstimateEdges evaluates the resistance estimate for every edge of g in
// parallel and returns the results in edge-index order.
func (e *Embedding) EstimateEdges(g *graph.Graph, workers int) []float64 {
	m := g.NumEdges()
	out := make([]float64, m)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || m < 1024 {
		for i, ed := range g.All() {
			out[i] = e.Resistance(ed.U, ed.V)
		}
		return out
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= m {
			break
		}
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ed := g.Edge(i)
				out[i] = e.Resistance(ed.U, ed.V)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// NewEmbedding builds the Krylov resistance embedding of g (paper setup
// phase 1). g must have at least one node; disconnected graphs are allowed
// (cross-component estimates are large but finite, which the LRD
// decomposition tolerates).
func NewEmbedding(g *graph.Graph, cfg Config) (*Embedding, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("krylov: empty graph")
	}
	cfg = cfg.withDefaults(n)
	csr := graph.NewCSR(g)
	rng := vecmath.NewRNG(cfg.Seed)

	// Setup-phase matrix products (the chain walks and the m Rayleigh-Ritz
	// Laplacian products) dispatch into the persistent kernel pool over an
	// nnz-balanced partition; both kernels are bit-identical to the serial
	// CSR products, so the embedding is deterministic for every Workers.
	kern := kernel.Shared(cfg.Workers)
	var part []int
	if kern != nil {
		part = csr.NNZPartition(kern.Workers())
	}

	// Lazy-walk application: dst = (x + D^{-1} A x) / 2. Power iterations
	// of this operator damp high-frequency (high Laplacian eigenvalue)
	// components, so the orthonormalized chain approximates the low end of
	// the Laplacian spectrum - the part that dominates Eq. (2). The lazy
	// 1/2 step keeps near-(-1) adjacency modes of bipartite graphs from
	// surviving the iteration.
	invDeg := make([]float64, n)
	for i, d := range csr.Degree {
		if d > 0 {
			invDeg[i] = 1 / d
		}
	}
	apply := func(dst, x []float64) {
		kern.AdjMul(csr, part, dst, x)
		for i := range dst {
			dst[i] = 0.5 * (x[i] + float64(dst[i]*invDeg[i]))
		}
	}

	perStart := (cfg.Order + cfg.Starts - 1) / cfg.Starts
	raw := make([][]float64, 0, cfg.Starts*perStart)
	cur := make([]float64, n)
	next := make([]float64, n)
	for s := 0; s < cfg.Starts; s++ {
		// A Rademacher draw can be constant on tiny graphs, which the
		// ones-projection annihilates; retry a few times before giving up
		// on this start.
		ok := false
		for attempt := 0; attempt < 8; attempt++ {
			rng.FillRademacher(cur)
			vecmath.ProjectOutOnes(cur)
			if vecmath.Normalize(cur) > 0 {
				ok = true
				break
			}
		}
		if !ok {
			continue
		}
		for k := 0; k < perStart; k++ {
			raw = append(raw, append([]float64(nil), cur...))
			apply(next, cur)
			vecmath.ProjectOutOnes(next)
			if vecmath.Normalize(next) == 0 {
				break // chain collapsed (tiny graph)
			}
			cur, next = next, cur
		}
	}

	basis := vecmath.OrthonormalizeMGS(raw, 1e-9)
	if len(basis) == 0 && n >= 2 {
		// Deterministic fallback for degenerate tiny inputs: mean-centered
		// coordinate vectors span the whole complement of ones.
		lim := cfg.Order
		if lim > n-1 {
			lim = n - 1
		}
		raw = raw[:0]
		for i := 0; i < lim; i++ {
			v := make([]float64, n)
			v[i] = 1
			vecmath.ProjectOutOnes(v)
			raw = append(raw, v)
		}
		basis = vecmath.OrthonormalizeMGS(raw, 1e-9)
	}
	if len(basis) == 0 {
		return nil, fmt.Errorf("krylov: subspace collapsed (graph too small or degenerate)")
	}

	// Rayleigh-Ritz: project L into the subspace, T = Q' L Q, and
	// eigendecompose the small matrix. The Ritz pairs (theta_i, Q y_i) are
	// the subspace's best approximations to Laplacian eigenpairs, which is
	// what Eq. (2) actually consumes; using raw chain vectors instead
	// makes the sum basis-dependent and meaningless.
	m := len(basis)
	t := rayleighRitz(kern, csr, part, basis)
	theta, y, err := vecmath.SymEig(t)
	if err != nil {
		return nil, fmt.Errorf("krylov: Rayleigh-Ritz eigensolve: %w", err)
	}
	coords := coordTable(basis, theta, y)
	return &Embedding{N: n, Dims: m, coords: coords}, nil
}

// chunk is the node-block length of the blocked setup loops below: small
// enough that a block of every basis vector stays in cache (32 vectors of
// 512 entries are 128 KiB), and a multiple of 4, as vecmath.Lanes needs.
const chunk = 512

// rayleighRitz returns T = Q' L Q for the orthonormal basis Q. The m
// Laplacian products run graph.MaxMulti columns at a time through
// kern.LapMulMulti, each column bit-identical to a LapMul of it alone.
// Entry (i, j) is vecmath.Dot(basis[i], L basis[j]) bit for bit: the
// m(m+1)/2 products advance together through vecmath.Lanes, one node
// block at a time, so a block of every vector is read once for all of
// them instead of once per product.
func rayleighRitz(kern *kernel.Pool, csr *graph.CSR, part []int, basis [][]float64) *vecmath.Dense {
	m, n := len(basis), len(basis[0])
	lq := make([][]float64, m)
	for j := range lq {
		lq[j] = make([]float64, n)
	}
	for lo := 0; lo < m; lo += graph.MaxMulti {
		hi := min(lo+graph.MaxMulti, m)
		kern.LapMulMulti(csr, part, lq[lo:hi], basis[lo:hi])
	}

	// lanes[p] is the product of pair p = (i, j), i <= j, numbered row by
	// row over j.
	lanes := make([]vecmath.Lanes, m*(m+1)/2)
	v := n &^ 3
	for lo := 0; lo < v; lo += chunk {
		hi := min(lo+chunk, v)
		p := 0
		for j := 0; j < m; j++ {
			for i := 0; i <= j; i++ {
				lanes[p].Add(basis[i][lo:hi], lq[j][lo:hi])
				p++
			}
		}
	}
	t := vecmath.NewDense(m, m)
	p := 0
	for j := 0; j < m; j++ {
		for i := 0; i <= j; i++ {
			s := lanes[p].Finish(basis[i][v:], lq[j][v:])
			t.Set(i, j, s)
			t.Set(j, i, s)
			p++
		}
	}
	return t
}

// coordTable returns the node-major coordinate table
// coords[v*m+i] = (Q y_i)[v] / sqrt(theta_i). Ritz values at numerical zero
// are null-space remnants: their columns stay 0. Each entry sums its terms
// in j order, skipping zero y entries; the table fills one node block at a
// time, so a block of every basis vector is read from cache m times rather
// than each whole vector from memory. Writing each product float64(c*q)
// rounds it before the add, so no architecture fuses the two into one
// multiply-add with other bits.
func coordTable(basis [][]float64, theta []float64, y *vecmath.Dense) []float64 {
	m, n := len(basis), len(basis[0])
	coords := make([]float64, n*m)
	col := make([]float64, chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		acc := col[:hi-lo]
		for i, th := range theta {
			if th <= 1e-12 {
				continue
			}
			scale := 1 / math.Sqrt(th)
			clear(acc)
			for j, qj := range basis {
				yji := y.At(j, i)
				if yji == 0 {
					continue
				}
				c := yji * scale
				for v, q := range qj[lo:hi] {
					acc[v] += float64(c * q)
				}
			}
			for v, x := range acc {
				coords[(lo+v)*m+i] = x
			}
		}
	}
	return coords
}
