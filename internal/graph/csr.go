package graph

import (
	"fmt"
	"sort"
)

// CSR is a frozen compressed-sparse-row view of a graph's adjacency
// structure, optimized for the repeated matrix-vector products at the heart
// of the Krylov and conjugate-gradient kernels. Parallel edges are merged
// during construction (conductances in parallel add), so each (row, col)
// pair appears at most once.
type CSR struct {
	N       int
	RowPtr  []int     // len N+1
	ColIdx  []int     // len nnz (off-diagonal only)
	Weights []float64 // len nnz, matching ColIdx
	Degree  []float64 // weighted degree per node (Laplacian diagonal)
}

// NewCSR freezes g into CSR form.
func NewCSR(g *Graph) *CSR {
	n := g.NumNodes()
	c := &CSR{N: n, RowPtr: make([]int, n+1), Degree: make([]float64, n)}

	// First pass: count coalesced neighbors per row using a stamp array so
	// we avoid a map. stamp[v] = u+1 when v was already seen in row u.
	stamp := make([]int, n)
	counts := make([]int, n)
	for u := 0; u < n; u++ {
		for _, a := range g.Adj(u) {
			if stamp[a.To] != u+1 {
				stamp[a.To] = u + 1
				counts[u]++
			}
		}
	}
	nnz := 0
	for u := 0; u < n; u++ {
		c.RowPtr[u] = nnz
		nnz += counts[u]
	}
	c.RowPtr[n] = nnz
	c.ColIdx = make([]int, nnz)
	c.Weights = make([]float64, nnz)

	// Second pass: fill, merging parallel edges. slot[v] remembers where v
	// landed within the current row.
	for i := range stamp {
		stamp[i] = 0
	}
	slot := make([]int, n)
	fill := make([]int, n)
	for u := 0; u < n; u++ {
		base := c.RowPtr[u]
		for _, a := range g.Adj(u) {
			w := g.Edge(int(a.Edge)).W
			if stamp[a.To] == u+1 {
				c.Weights[slot[a.To]] += w
			} else {
				stamp[a.To] = u + 1
				pos := base + fill[u]
				fill[u]++
				slot[a.To] = pos
				c.ColIdx[pos] = int(a.To)
				c.Weights[pos] = w
			}
			c.Degree[u] += w
		}
	}
	return c
}

// NNZ returns the number of stored off-diagonal entries.
func (c *CSR) NNZ() int { return len(c.ColIdx) }

// AdjMul computes dst = A x where A is the weighted adjacency matrix.
//
// Here and in every SpMV kernel, each product that feeds a sum is written
// float64(w*x). The conversion rounds the product, so no architecture fuses
// it into a multiply-add (Go does on arm64) and every host computes the
// same bits.
func (c *CSR) AdjMul(dst, x []float64) {
	if len(x) != c.N || len(dst) != c.N {
		panic(fmt.Sprintf("graph: AdjMul dims %d/%d vs N=%d", len(dst), len(x), c.N))
	}
	for u := 0; u < c.N; u++ {
		var s float64
		for k := c.RowPtr[u]; k < c.RowPtr[u+1]; k++ {
			s += float64(c.Weights[k] * x[c.ColIdx[k]])
		}
		dst[u] = s
	}
}

// LapMul computes dst = L x = (D - A) x matrix-free.
func (c *CSR) LapMul(dst, x []float64) {
	if len(x) != c.N || len(dst) != c.N {
		panic(fmt.Sprintf("graph: LapMul dims %d/%d vs N=%d", len(dst), len(x), c.N))
	}
	for u := 0; u < c.N; u++ {
		s := c.Degree[u] * x[u]
		for k := c.RowPtr[u]; k < c.RowPtr[u+1]; k++ {
			s -= float64(c.Weights[k] * x[c.ColIdx[k]])
		}
		dst[u] = s
	}
}

// SpMVWork is the abstract cost of one Laplacian product: one multiply-add
// per stored entry plus a diagonal term and a store per row.
func (c *CSR) SpMVWork() int { return len(c.ColIdx) + 2*c.N }

// MaxMulti is the widest vector block the multi-vector kernels accept. It
// bounds the per-row accumulator array LapMulMulti keeps in registers, and
// through sparse.MaxBlockWidth it caps how many right-hand sides one blocked
// solve iterates in lockstep.
const MaxMulti = 16

// LapMulMulti computes dst[j] = L x[j] for every column j in one traversal
// of the CSR structure. A single Laplacian product is dominated by streaming
// RowPtr/ColIdx/Weights; applying the operator to a block of b vectors reads
// that structure once instead of b times, which is the whole point of the
// blocked multi-RHS solvers. Per-column accumulation order matches LapMul
// exactly (diagonal term first, then neighbors in storage order), so each
// column of the result is bit-identical to a serial LapMul of that column.
//
// len(x) must equal len(dst), be at most MaxMulti, and every column must
// have length N. Columns must not alias each other or dst.
func (c *CSR) LapMulMulti(dst, x [][]float64) {
	b := len(x)
	if len(dst) != b {
		panic(fmt.Sprintf("graph: LapMulMulti block widths %d/%d", len(dst), b))
	}
	if b == 0 {
		return
	}
	if b > MaxMulti {
		panic(fmt.Sprintf("graph: LapMulMulti width %d exceeds MaxMulti=%d", b, MaxMulti))
	}
	if b == 1 {
		c.LapMul(dst[0], x[0])
		return
	}
	for j := 0; j < b; j++ {
		if len(x[j]) != c.N || len(dst[j]) != c.N {
			panic(fmt.Sprintf("graph: LapMulMulti column %d dims %d/%d vs N=%d", j, len(dst[j]), len(x[j]), c.N))
		}
	}
	c.LapMulMultiRange(dst, x, 0, c.N)
}

// LapMulMultiRange applies the blocked Laplacian product to rows [lo, hi).
// It is the shared body of LapMulMulti and the pooled multi-SpMV (each
// kernel-pool worker runs it over its partition range). Columns are
// processed in width-4 / width-2 / width-1 groups by specialized unrolled
// kernels: hoisting the column slices into locals keeps the per-column
// accumulators in registers and eliminates the slice-header reload a
// generic [][]float64 inner loop pays per nonzero per column — the
// difference between ~1.1x and >2x over independent products. Callers must
// have validated dimensions.
func (c *CSR) LapMulMultiRange(dst, x [][]float64, lo, hi int) {
	j := 0
	for ; j+4 <= len(x); j += 4 {
		c.lapMulMulti4(dst[j], dst[j+1], dst[j+2], dst[j+3], x[j], x[j+1], x[j+2], x[j+3], lo, hi)
	}
	if j+2 <= len(x) {
		c.lapMulMulti2(dst[j], dst[j+1], x[j], x[j+1], lo, hi)
		j += 2
	}
	if j < len(x) {
		c.lapMulRange(dst[j], x[j], lo, hi)
	}
}

// lapMulRange is LapMul restricted to rows [lo, hi).
func (c *CSR) lapMulRange(dst, x []float64, lo, hi int) {
	for u := lo; u < hi; u++ {
		s := c.Degree[u] * x[u]
		for k := c.RowPtr[u]; k < c.RowPtr[u+1]; k++ {
			s -= float64(c.Weights[k] * x[c.ColIdx[k]])
		}
		dst[u] = s
	}
}

// lapMulMulti2 computes two Laplacian products in one traversal of rows
// [lo, hi). Per-column accumulation order matches LapMul exactly.
func (c *CSR) lapMulMulti2(d0, d1, x0, x1 []float64, lo, hi int) {
	for u := lo; u < hi; u++ {
		deg := c.Degree[u]
		s0 := deg * x0[u]
		s1 := deg * x1[u]
		for k := c.RowPtr[u]; k < c.RowPtr[u+1]; k++ {
			w, ci := c.Weights[k], c.ColIdx[k]
			s0 -= float64(w * x0[ci])
			s1 -= float64(w * x1[ci])
		}
		d0[u] = s0
		d1[u] = s1
	}
}

// lapMulMulti4 computes four Laplacian products in one traversal of rows
// [lo, hi). Per-column accumulation order matches LapMul exactly.
func (c *CSR) lapMulMulti4(d0, d1, d2, d3, x0, x1, x2, x3 []float64, lo, hi int) {
	for u := lo; u < hi; u++ {
		deg := c.Degree[u]
		s0 := deg * x0[u]
		s1 := deg * x1[u]
		s2 := deg * x2[u]
		s3 := deg * x3[u]
		for k := c.RowPtr[u]; k < c.RowPtr[u+1]; k++ {
			w, ci := c.Weights[k], c.ColIdx[k]
			s0 -= float64(w * x0[ci])
			s1 -= float64(w * x1[ci])
			s2 -= float64(w * x2[ci])
			s3 -= float64(w * x3[ci])
		}
		d0[u] = s0
		d1[u] = s1
		d2[u] = s2
		d3[u] = s3
	}
}

// NNZPartition splits the rows into the given number of contiguous chunks
// of near-equal work (nonzeros plus a constant per row), returning chunk
// boundaries of length chunks+1 with part[0] = 0 and part[chunks] = N.
// Count-based row partitions are pathological on power-law graphs, where a
// few hub rows hold a large share of the nonzeros; balancing on the RowPtr
// prefix (plus a per-row constant so empty-row ranges still split) keeps
// every chunk's cost within one row of even. Each boundary is a binary
// search over RowPtr, so freezing a partition costs O(chunks · log N).
func (c *CSR) NNZPartition(chunks int) []int {
	if chunks < 1 {
		chunks = 1
	}
	if chunks > c.N && c.N > 0 {
		chunks = c.N
	}
	part := make([]int, chunks+1)
	total := c.SpMVWork()
	for i := 1; i < chunks; i++ {
		target := total * i / chunks
		// Smallest u with RowPtr[u] + 2u >= target; monotone in u.
		part[i] = sort.Search(c.N, func(u int) bool {
			return c.RowPtr[u]+2*u >= target
		})
	}
	part[chunks] = c.N
	// Boundaries are individually monotone by construction; enforce it
	// anyway so a degenerate search result can never cross.
	for i := 1; i <= chunks; i++ {
		if part[i] < part[i-1] {
			part[i] = part[i-1]
		}
	}
	return part
}

// Neighbors returns the (coalesced) neighbor indices of u as a sub-slice of
// the CSR storage. Callers must not modify it.
func (c *CSR) Neighbors(u int) []int {
	return c.ColIdx[c.RowPtr[u]:c.RowPtr[u+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(u).
func (c *CSR) NeighborWeights(u int) []float64 {
	return c.Weights[c.RowPtr[u]:c.RowPtr[u+1]]
}
