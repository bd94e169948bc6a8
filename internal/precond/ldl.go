package precond

import (
	"cmp"
	"math"
	"slices"

	"ingrass/internal/graph"
)

// maxPivotDegree caps the elimination: factorization stops at the first
// pivot whose current degree exceeds it, which bounds factor work by
// maxPivotDegree²·n. A stopped factorization keeps no factor, and solves
// precondition with G's Jacobi diagonal instead.
const maxPivotDegree = 64

// ldl is an exact LDLᵀ factor of a sparsifier Laplacian grounded at one
// node per connected component. Column k of the unit lower-triangular L
// belongs to node order[k] and holds, for every neighbour u that node had
// when it was eliminated, the multiplier coef = w(u, order[k]) / piv[k]
// (L's entry is its negation); piv is D. Ground nodes have no column and
// their solution entries are 0.
type ldl struct {
	order  []int32
	colPtr []int32 // len(order)+1 offsets into rows and coef
	rows   []int32
	coef   []float64
	piv    []float64
	ground []int32
}

// nbr is one weighted neighbour in the elimination graph.
type nbr struct {
	to int32
	w  float64
}

// factorLDL eliminates h's Laplacian by greedy minimum degree, breaking
// ties by the lowest node id, and returns the factor — or nil when a pivot
// of degree above maxPivotDegree stops the elimination. Adjacency lives in
// sorted slices and parallel edges are summed in edge-index order, so the
// factor depends only on h's edge list: equal edge lists give bit-identical
// factors. A node reached with degree 0 is the last of its component and
// becomes that component's ground instead of a pivot, so no pivot is zero.
func factorLDL(h *graph.Graph) *ldl {
	n := h.NumNodes()
	adj := make([][]nbr, n)
	back := make([]nbr, 2*h.NumEdges())
	for u := range adj {
		arcs := h.Adj(u) // edge-index order
		a := back[:len(arcs):len(arcs)]
		back = back[len(arcs):]
		for i, arc := range arcs {
			a[i] = nbr{arc.To, h.Edge(int(arc.Edge)).W}
		}
		// A stable sort keeps parallel edges in edge-index order for the sum.
		slices.SortStableFunc(a, func(x, y nbr) int { return cmp.Compare(x.to, y.to) })
		k := 0
		for i := range a {
			if k > 0 && a[k-1].to == a[i].to {
				a[k-1].w += a[i].w
				continue
			}
			a[k] = a[i]
			k++
		}
		adj[u] = a[:k:k]
	}

	q := newDegreeHeap(adj)
	f := &ldl{
		order:  make([]int32, 0, n),
		colPtr: append(make([]int32, 0, n+1), 0),
		rows:   make([]int32, 0, 2*h.NumEdges()),
		coef:   make([]float64, 0, 2*h.NumEdges()),
		piv:    make([]float64, 0, n),
	}
	var buf, sn []nbr
	for q.len() > 0 {
		v := q.pop()
		nb := adj[v]
		if len(nb) > maxPivotDegree {
			return nil
		}
		if len(nb) == 0 {
			f.ground = append(f.ground, v)
			continue
		}
		var p float64
		for _, x := range nb {
			p += x.w
		}
		// The Schur complement of v joins neighbours i and j with weight
		// w_i·w_j/p, formed as s_i·s_j with s = w/√p: symmetric in i and j,
		// and free of the overflow and underflow w_i·w_j has at extreme
		// weights.
		sq := math.Sqrt(p)
		sn = sn[:0]
		for _, x := range nb {
			f.rows = append(f.rows, x.to)
			f.coef = append(f.coef, x.w/p)
			sn = append(sn, nbr{x.to, x.w / sq})
		}
		f.order = append(f.order, v)
		f.piv = append(f.piv, p)
		f.colPtr = append(f.colPtr, int32(len(f.rows)))
		for _, x := range sn {
			buf = absorb(adj, buf, x.to, v, x.w, sn)
			q.fix(x.to)
		}
		adj[v] = nil
	}
	return f.compact()
}

// absorb rewrites u's adjacency as the Schur complement of eliminating v
// leaves it: v removed, and every other neighbour of v joined with weight
// su·s, where sn lists v's neighbours (sorted) with their scaled weights s
// and su is u's. buf is merge scratch, returned for reuse.
func absorb(adj [][]nbr, buf []nbr, u, v int32, su float64, sn []nbr) []nbr {
	out, j := buf[:0], 0
	for _, x := range adj[u] {
		if x.to == v {
			continue
		}
		for ; j < len(sn) && sn[j].to < x.to; j++ {
			if sn[j].to != u {
				out = append(out, nbr{sn[j].to, su * sn[j].w})
			}
		}
		if j < len(sn) && sn[j].to == x.to {
			x.w += float64(su * sn[j].w)
			j++
		}
		out = append(out, x)
	}
	for ; j < len(sn); j++ {
		if sn[j].to != u {
			out = append(out, nbr{sn[j].to, su * sn[j].w})
		}
	}
	adj[u] = append(adj[u][:0], out...)
	return out
}

// compact copies the factor into exact-size slices, so a factor kept for
// a whole generation holds no growth slack.
func (f *ldl) compact() *ldl {
	return &ldl{
		order:  slices.Clone(f.order),
		colPtr: slices.Clone(f.colPtr),
		rows:   slices.Clone(f.rows),
		coef:   slices.Clone(f.coef),
		piv:    slices.Clone(f.piv),
		ground: slices.Clone(f.ground),
	}
}

// nnz returns the stored entries of the factor: L's off-diagonal entries
// plus the pivots of D.
func (f *ldl) nnz() int { return len(f.rows) + len(f.piv) }

// solve overwrites every column of xs, holding a right-hand side b, with
// the grounded solution of L_H x = b: a forward sweep over L with the
// diagonal scale folded in, ground entries set to 0, then a backward sweep
// (to which the zeroed ground entries contribute nothing). Each column
// sees the same operations in the same order whatever the block width, so
// column j of a block equals a width-1 solve.
//
// Products are written float64(c*x) so that no architecture fuses them into
// a multiply-add: the sweeps give the same bits on every host.
func (f *ldl) solve(xs [][]float64) {
	for k, v := range f.order {
		rows, coef := f.rows[f.colPtr[k]:f.colPtr[k+1]], f.coef[f.colPtr[k]:f.colPtr[k+1]]
		for _, x := range xs {
			xv := x[v]
			for p, u := range rows {
				x[u] += float64(coef[p] * xv)
			}
			x[v] = xv / f.piv[k]
		}
	}
	for _, g := range f.ground {
		for _, x := range xs {
			x[g] = 0
		}
	}
	for k := len(f.order) - 1; k >= 0; k-- {
		v := f.order[k]
		rows, coef := f.rows[f.colPtr[k]:f.colPtr[k+1]], f.coef[f.colPtr[k]:f.colPtr[k+1]]
		for _, x := range xs {
			s := x[v]
			for p, u := range rows {
				s += float64(coef[p] * x[u])
			}
			x[v] = s
		}
	}
}

// degreeHeap is an indexed binary min-heap of the uneliminated nodes. Each
// entry packs its key, (current degree, node id), into one uint64 so the
// order is a plain integer comparison; fix re-reads a node's degree from
// the elimination graph after it changed.
type degreeHeap struct {
	adj  [][]nbr
	heap []uint64 // degree<<32 | node
	pos  []int32  // node -> index in heap
}

func newDegreeHeap(adj [][]nbr) *degreeHeap {
	q := &degreeHeap{adj: adj, heap: make([]uint64, len(adj)), pos: make([]int32, len(adj))}
	for v := range q.heap {
		q.heap[v] = uint64(len(adj[v]))<<32 | uint64(v)
		q.pos[v] = int32(v)
	}
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return q
}

func (q *degreeHeap) len() int { return len(q.heap) }

func (q *degreeHeap) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[uint32(q.heap[i])] = int32(i)
	q.pos[uint32(q.heap[j])] = int32(j)
}

func (q *degreeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if q.heap[i] >= q.heap[p] {
			return
		}
		q.swap(i, p)
		i = p
	}
}

func (q *degreeHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q.heap) {
			return
		}
		if c+1 < len(q.heap) && q.heap[c+1] < q.heap[c] {
			c++
		}
		if q.heap[c] >= q.heap[i] {
			return
		}
		q.swap(i, c)
		i = c
	}
}

func (q *degreeHeap) pop() int32 {
	v := int32(uint32(q.heap[0]))
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap = q.heap[:last]
	q.down(0)
	return v
}

// fix restores heap order after node v's degree changed.
func (q *degreeHeap) fix(v int32) {
	i := int(q.pos[v])
	q.heap[i] = uint64(len(q.adj[v]))<<32 | uint64(v)
	q.up(i)
	q.down(int(q.pos[v]))
}
