// Package graph implements the weighted undirected graph substrate used by
// every other package in the repository: a mutable edge-list representation
// with incremental adjacency, a frozen CSR view for matrix-free Laplacian
// kernels, union-find, traversals/connectivity, a plain-text interchange
// format, and summary statistics.
//
// Node identifiers are dense integers 0..N-1. Parallel edges are permitted
// in the mutable representation (the Laplacian treats them as conductances
// in parallel, i.e. weights add); self-loops are rejected because they do
// not affect Laplacian quadratic forms. A graph holds at most math.MaxInt32
// nodes and math.MaxInt32 edges, so an adjacency Arc fits in 8 bytes and a
// stored edge in 16: two int32 endpoints and the weight. Edge, the form
// every reader sees, keeps int endpoints and is widened from the record.
//
// Edges and adjacency headers live in fixed-size pages behind two page
// tables (see page.go). Snapshot copies the tables, not the pages: after
// it, a mutation of either graph copies only the pages it writes, so the
// first write after a snapshot costs a few KiB, not a copy of the graph.
//
// Each node's adjacency list holds its arcs in edge-index order. A full
// copy of a graph (Clone, ReadBinary) carves its pages from one backing
// array each and every list from one arena as a three-index slice with
// headroom of len/adjHeadroom+1 arcs, so a copy costs a constant number of
// allocations and the first appends after it land in place. A list that
// outgrows its headroom is reallocated on its own by append.
package graph

import (
	"fmt"
	"iter"
	"math"
	"slices"
)

// Edge is a weighted undirected edge between nodes U and V.
type Edge struct {
	U, V int
	W    float64
}

// Canon returns the edge with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Key packs the canonical endpoint pair into a single comparable value.
// It is usable as a map key for edge-identity checks.
func (e Edge) Key() uint64 {
	c := e.Canon()
	return uint64(c.U)<<32 | uint64(uint32(c.V))
}

// KeyOf returns the canonical pair key for endpoints (u, v).
func KeyOf(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// Graph is a mutable weighted undirected multigraph over nodes 0..N-1.
//
// The zero value is an empty graph with no nodes; use New to preallocate.
// Edges are stored in insertion order and never reordered, so edge indices
// returned by AddEdge remain stable for the life of the graph — the
// sparsifier update machinery relies on that stability to address edges.
type Graph struct {
	n, m int
	// epages[k] holds edges [k·edgePageSize, (k+1)·edgePageSize); npages[k]
	// holds the adjacency headers of the matching node range. Node u's
	// header lists (neighbor, edge index) pairs in edge-index order. The
	// tables are private to g; the pages may be shared (see page.go).
	epages []*edgePage
	npages []*nodePage
	// totalWeight caches the sum of all edge weights.
	totalWeight float64
	// epoch stamps the pages g may write in place (zero: none); id stamps
	// the arc arrays and edge-page tails g may extend (zero: none yet).
	epoch, id uint64
}

// Arc is one directed half of an undirected edge as seen from a node's
// adjacency list.
type Arc struct {
	To   int32 // neighbor node
	Edge int32 // edge index (see Edge)
}

// New returns an empty graph with n nodes and capacity hint edgeCap. Its
// node pages and the edge pages for edgeCap edges are carved from one
// backing array each.
func New(n int, edgeCap int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes exceed the limit of %d", n, math.MaxInt32))
	}
	g := &Graph{n: n}
	g.own()
	g.npages = g.carveNodePages(pagesFor(n, nodePageShift))
	g.epages = g.carveEdgePages(pagesFor(max(edgeCap, 0), edgePageShift))
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges (parallel edges counted separately).
func (g *Graph) NumEdges() int { return g.m }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 { return g.totalWeight }

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge {
	// An index past the edge count becomes -1, which the table index
	// rejects with a bounds panic; a call to a panic helper instead would
	// keep this accessor from being inlined.
	if uint(i) >= uint(g.m) {
		i = -1
	}
	return g.epages[i>>edgePageShift].e[i&edgePageMask].edge()
}

// All iterates over the edges in index order, as (index, edge) pairs. It
// walks the edges g holds when the iteration starts.
func (g *Graph) All() iter.Seq2[int, Edge] {
	return func(yield func(int, Edge) bool) {
		m, pages := g.m, g.epages
		for k := 0; k<<edgePageShift < m; k++ {
			base := k << edgePageShift
			for j, e := range pages[k].e[:min(edgePageSize, m-base)] {
				if !yield(base+j, e.edge()) {
					return
				}
			}
		}
	}
}

// AppendEdges appends every edge of g, in index order, to dst.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	dst = slices.Grow(dst, g.m)
	for k := 0; k<<edgePageShift < g.m; k++ {
		for _, e := range g.edgePage(k) {
			dst = append(dst, e.edge())
		}
	}
	return dst
}

// edgePage returns the used slots of edge page k.
func (g *Graph) edgePage(k int) []edge32 {
	return g.epages[k].e[:min(edgePageSize, g.m-k<<edgePageShift)]
}

// Adj returns the adjacency list of node u: one Arc per incident edge.
// Callers must not write to it.
func (g *Graph) Adj(u int) []Arc {
	if uint(u) >= uint(g.n) {
		u = -1 // a bounds panic, as in Edge
	}
	return g.npages[u>>nodePageShift].adj[u&nodePageMask]
}

// Degree returns the number of incident edges of u (parallel edges counted).
func (g *Graph) Degree(u int) int { return len(g.Adj(u)) }

// WeightedDegree returns the sum of the weights of edges incident to u.
func (g *Graph) WeightedDegree(u int) float64 {
	var s float64
	for _, a := range g.Adj(u) {
		s += g.Edge(int(a.Edge)).W
	}
	return s
}

// Snapshot returns an immutable-by-convention copy-on-write view of g. It
// copies the two page tables — one pointer per page — and marks every page
// of g shared; after it, each mutation of either graph copies the pages it
// writes, a few KiB for a one-edge write, and both go on sharing every page
// neither has written. Snapshots are safe to read from any number of
// goroutines while the live graph keeps mutating, which is what the
// concurrent service layer relies on for snapshot-isolated queries.
func (g *Graph) Snapshot() *Graph {
	// Only write the epoch when g owns pages: a graph returned by Snapshot
	// owns none, and published service snapshots are snapshotted again
	// from many goroutines at once, so that path must stay write-free.
	if g.epoch != 0 {
		g.epoch = 0
	}
	return &Graph{
		n:           g.n,
		m:           g.m,
		epages:      slices.Clone(g.epages[:pagesFor(g.m, edgePageShift)]),
		npages:      slices.Clone(g.npages[:pagesFor(g.n, nodePageShift)]),
		totalWeight: g.totalWeight,
	}
}

// AddNode appends a new isolated node and returns its identifier.
func (g *Graph) AddNode() int {
	if g.n >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: AddNode past the limit of %d nodes", math.MaxInt32))
	}
	// The new node's header is already nil in every page g can reach, so
	// only a node that starts a page writes anything.
	if g.n == len(g.npages)<<nodePageShift {
		g.own()
		g.npages = append(g.npages, &nodePage{owner: g.epoch, appender: g.id})
	}
	g.n++
	return g.n - 1
}

// AddEdge inserts the undirected edge (u, v) with weight w and returns its
// stable edge index. It panics on out-of-range endpoints, self-loops, or
// non-positive / non-finite weights: every algorithm in this repository
// assumes a positive conductance model.
func (g *Graph) AddEdge(u, v int, w float64) int {
	g.checkEdge(u, v, w)
	g.checkEdgeCount(1)
	idx := g.m
	g.own()
	g.edgePageFor(idx>>edgePageShift, idx&edgePageMask).e[idx&edgePageMask] = edge32{U: int32(u), V: int32(v), W: w}
	g.m++
	hu := g.header(u)
	*hu = append(*hu, Arc{To: int32(v), Edge: int32(idx)})
	hv := g.header(v)
	*hv = append(*hv, Arc{To: int32(u), Edge: int32(idx)})
	g.totalWeight += w
	return idx
}

// AddEdges appends edges in order, as a loop of AddEdge calls would: the
// same edge indices, the same arcs in every adjacency list and the same
// total weight, bit for bit. It validates every edge before it writes any,
// with AddEdge's panics. The records go in one edge page at a time, and the
// arcs are bucketed by node page with a stable counting sort, so each node
// page is resolved once and its lists are extended together; a node still
// gets its arcs in edge-index order.
func (g *Graph) AddEdges(edges []Edge) {
	for _, e := range edges {
		g.checkEdge(e.U, e.V, e.W)
	}
	g.checkEdgeCount(len(edges))
	if len(edges) == 0 {
		return
	}
	first := g.m
	g.own()
	for i := 0; i < len(edges); {
		slot := g.m & edgePageMask
		p := g.edgePageFor(g.m>>edgePageShift, slot)
		c := min(edgePageSize-slot, len(edges)-i)
		for j, e := range edges[i : i+c] {
			p.e[slot+j] = edge32{U: int32(e.U), V: int32(e.V), W: e.W}
		}
		g.m += c
		i += c
	}
	// Bucket the arcs by the node page of the node they join, keeping edge
	// order within each bucket. end[k] counts, then places, then ends node
	// page k's bucket.
	type nodeArc struct {
		u int32
		a Arc
	}
	end := make([]int32, len(g.npages)+1)
	for _, e := range edges {
		end[e.U>>nodePageShift+1]++
		end[e.V>>nodePageShift+1]++
	}
	for k := range g.npages {
		end[k+1] += end[k]
	}
	arcs := make([]nodeArc, 2*len(edges))
	for i, e := range edges {
		idx := int32(first + i)
		k := e.U >> nodePageShift
		arcs[end[k]] = nodeArc{int32(e.U), Arc{To: int32(e.V), Edge: idx}}
		end[k]++
		k = e.V >> nodePageShift
		arcs[end[k]] = nodeArc{int32(e.V), Arc{To: int32(e.U), Edge: idx}}
		end[k]++
	}
	lo := int32(0)
	for k, p := range g.npages {
		hi := end[k]
		if lo == hi {
			continue
		}
		if p.owner != g.epoch {
			p = g.copyNodePage(k)
		}
		for _, x := range arcs[lo:hi] {
			h := &p.adj[x.u&nodePageMask]
			*h = append(*h, x.a)
		}
		lo = hi
	}
	for _, e := range edges {
		g.totalWeight += e.W
	}
}

// checkEdge panics unless (u, v) joins two distinct nodes of g with a
// positive, finite weight w.
func (g *Graph) checkEdge(u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0, %d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d rejected", u))
	}
	checkWeight(w)
}

// checkEdgeCount panics if k more edges would pass the edge limit.
func (g *Graph) checkEdgeCount(k int) {
	if k > math.MaxInt32-g.m {
		panic(fmt.Sprintf("graph: AddEdge past the limit of %d edges", math.MaxInt32))
	}
}

// checkWeight panics unless w is a positive, finite edge weight.
func checkWeight(w float64) {
	if !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: edge weight %v must be positive and finite", w))
	}
}

// SetWeight replaces the weight of edge i.
func (g *Graph) SetWeight(i int, w float64) {
	checkWeight(w)
	old := g.Edge(i).W
	g.own()
	g.edgePageFor(i>>edgePageShift, i&edgePageMask).e[i&edgePageMask].W = w
	g.totalWeight += w - old
}

// AddWeight increments the weight of edge i by delta (merging a parallel
// edge into an existing one). The resulting weight must stay positive.
func (g *Graph) AddWeight(i int, delta float64) {
	g.SetWeight(i, g.Edge(i).W+delta)
}

// SpreadWeight adds weight w to the edges idx in proportion to their
// weights: it sums their weights in idx order, then multiplies each by
// 1 + w/sum, in idx order, as SetWeight would, bit for bit, with SetWeight's
// panic on a weight that is not positive and finite. It returns false, and
// changes nothing, if the sum is not positive (idx empty).
func (g *Graph) SpreadWeight(idx []int32, w float64) bool {
	var total float64
	for _, i := range idx {
		total += g.Edge(int(i)).W
	}
	if total <= 0 {
		return false
	}
	factor := 1 + w/total
	g.own()
	for _, i := range idx {
		k, slot := int(i)>>edgePageShift, int(i)&edgePageMask
		p := g.epages[k]
		if p.owner != g.epoch {
			p = g.edgePageFor(k, slot)
		}
		r := &p.e[slot]
		old := r.W
		nw := old * factor
		checkWeight(nw)
		r.W = nw
		g.totalWeight += nw - old
	}
	return true
}

// FindEdge returns the index of some edge between u and v and true, or
// (-1, false) if none exists. It scans the shorter adjacency list, so the
// cost is O(min(deg(u), deg(v))).
func (g *Graph) FindEdge(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return -1, false
	}
	a, b := u, v
	if len(g.Adj(a)) > len(g.Adj(b)) {
		a, b = b, a
	}
	for _, arc := range g.Adj(a) {
		if int(arc.To) == b {
			return int(arc.Edge), true
		}
	}
	return -1, false
}

// HasEdge reports whether at least one edge connects u and v.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.FindEdge(u, v)
	return ok
}

// Clone returns a deep copy of g: its edge pages, its node pages and its
// adjacency lists are carved from one backing array each, the lists with
// headroom (see carveLists), so a copy costs a constant number of
// allocations at any size.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, totalWeight: g.totalWeight}
	c.own()
	c.epages = c.carveEdgePages(pagesFor(g.m, edgePageShift))
	for k, p := range c.epages {
		copy(p.e[:], g.edgePage(k))
	}
	c.npages = c.carveNodePages(pagesFor(g.n, nodePageShift))
	carveLists(g.n, g.Degree, c.slot)
	for u := 0; u < g.n; u++ {
		h := c.slot(u)
		*h = append(*h, g.Adj(u)...)
	}
	return c
}

// slot returns a pointer to node u's header in whatever page holds it. It
// is for graphs under construction, whose pages are all their own.
func (g *Graph) slot(u int) *[]Arc { return &g.npages[u>>nodePageShift].adj[u&nodePageMask] }

// Subgraph returns a new graph over the same node set containing exactly
// the edges whose indices appear in keep (in that order).
func (g *Graph) Subgraph(keep []int) *Graph {
	s := New(g.n, len(keep))
	for _, i := range keep {
		e := g.Edge(i)
		s.AddEdge(e.U, e.V, e.W)
	}
	return s
}

// Coalesce returns a simple graph in which parallel edges have been merged
// by summing their weights. Edge order follows first occurrence.
func (g *Graph) Coalesce() *Graph {
	s := New(g.n, g.m)
	at := make(map[uint64]int, g.m)
	for _, e := range g.All() {
		k := e.Key()
		if i, ok := at[k]; ok {
			s.AddWeight(i, e.W)
			continue
		}
		at[k] = s.AddEdge(e.U, e.V, e.W)
	}
	return s
}

// QuadraticForm evaluates x' L x = sum_e w_e (x_u - x_v)^2 without forming
// the Laplacian. It panics if len(x) != NumNodes().
func (g *Graph) QuadraticForm(x []float64) float64 {
	if len(x) != g.n {
		panic(fmt.Sprintf("graph: QuadraticForm length %d != %d nodes", len(x), g.n))
	}
	var s float64
	for k := 0; k<<edgePageShift < g.m; k++ {
		for _, e := range g.edgePage(k) {
			d := x[e.U] - x[e.V]
			s += float64(e.W * d * d)
		}
	}
	return s
}

// LapMul computes y = L x matrix-free, where L = D - A is the weighted
// Laplacian. dst and x must have length NumNodes().
func (g *Graph) LapMul(dst, x []float64) {
	if len(x) != g.n || len(dst) != g.n {
		panic("graph: LapMul dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for k := 0; k<<edgePageShift < g.m; k++ {
		for _, e := range g.edgePage(k) {
			d := e.W * (x[e.U] - x[e.V])
			dst[e.U] += d
			dst[e.V] -= d
		}
	}
}

// DegreeVector returns the weighted degree of every node (the Laplacian
// diagonal).
func (g *Graph) DegreeVector() []float64 {
	d := make([]float64, g.n)
	for _, e := range g.All() {
		d[e.U] += e.W
		d[e.V] += e.W
	}
	return d
}

// Validate performs internal consistency checks (page tables cover the
// nodes and edges, adjacency mirrors the edge list, cached totals correct)
// and returns the first problem found. It is meant for tests and debug
// assertions, not hot paths.
func (g *Graph) Validate() error {
	if len(g.npages) < pagesFor(g.n, nodePageShift) || len(g.epages) < pagesFor(g.m, edgePageShift) {
		return fmt.Errorf("graph: %d node and %d edge pages for %d nodes and %d edges",
			len(g.npages), len(g.epages), g.n, g.m)
	}
	if k := g.n >> nodePageShift; k < len(g.npages) {
		for i, l := range g.npages[k].adj[g.n&nodePageMask:] {
			if l != nil {
				return fmt.Errorf("graph: header of node %d past the node count is set", g.n+i)
			}
		}
	}
	var tw float64
	deg := make([]int, g.n)
	for i, e := range g.All() {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range", i, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop", i)
		}
		if !(e.W > 0) {
			return fmt.Errorf("graph: edge %d weight %v not positive", i, e.W)
		}
		tw += e.W
		deg[e.U]++
		deg[e.V]++
	}
	if math.Abs(tw-g.totalWeight) > 1e-9*(1+math.Abs(tw)) {
		return fmt.Errorf("graph: cached total weight %v != recomputed %v", g.totalWeight, tw)
	}
	for u := 0; u < g.n; u++ {
		if len(g.Adj(u)) != deg[u] {
			return fmt.Errorf("graph: node %d adjacency length %d != degree %d", u, len(g.Adj(u)), deg[u])
		}
		for _, a := range g.Adj(u) {
			if a.Edge < 0 || int(a.Edge) >= g.m {
				return fmt.Errorf("graph: node %d has arc to invalid edge %d", u, a.Edge)
			}
			e, to := g.Edge(int(a.Edge)), int(a.To)
			if (e.U != u || e.V != to) && (e.V != u || e.U != to) {
				return fmt.Errorf("graph: node %d arc (%d, edge %d) disagrees with edge (%d,%d)", u, a.To, a.Edge, e.U, e.V)
			}
		}
	}
	return nil
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{N=%d, E=%d, W=%.4g}", g.n, g.m, g.totalWeight)
}
