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
// nodes and math.MaxInt32 edges, so an adjacency Arc fits in 8 bytes.
//
// Each node's adjacency list holds its arcs in edge-index order. A copy of a
// graph (Clone, the copy-on-write copy after a Snapshot, ReadBinary) carves
// every list from one arena as a three-index slice with headroom of
// len/adjHeadroom+1 arcs, so a copy costs a constant number of allocations
// and the first appends after it land in place. A list that outgrows its
// headroom is reallocated on its own by append.
package graph

import (
	"fmt"
	"math"
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
	n     int
	edges []Edge
	// adj[u] lists (neighbor, edge index) pairs in edge-index order. Kept
	// in sync by AddEdge.
	adj [][]Arc
	// totalWeight caches the sum of all edge weights.
	totalWeight float64
	// shared marks the edge and adjacency storage as shared with at least
	// one copy-on-write snapshot; the next mutation copies before writing.
	shared bool
}

// Arc is one directed half of an undirected edge as seen from a node's
// adjacency list.
type Arc struct {
	To   int32 // neighbor node
	Edge int32 // index into Edges()
}

// adjHeadroom sets the spare capacity of a copied adjacency list: a list of
// d arcs gets room for d/adjHeadroom+1 more before append reallocates it.
const adjHeadroom = 4

// carveAdj returns n empty adjacency lists carved from one arena, list u
// with capacity for deg(u) arcs plus headroom. Each list is a three-index
// slice, so an append past its capacity reallocates that list alone and
// never writes into a neighbour's span.
func carveAdj(n int, deg func(u int) int) [][]Arc {
	capOf := func(u int) int { d := deg(u); return d + d/adjHeadroom + 1 }
	total := 0
	for u := 0; u < n; u++ {
		total += capOf(u)
	}
	arena := make([]Arc, total)
	adj := make([][]Arc, n)
	for u := range adj {
		c := capOf(u)
		adj[u] = arena[:0:c]
		arena = arena[c:]
	}
	return adj
}

// copyAdj copies every list of src into one carved arena.
func copyAdj(src [][]Arc) [][]Arc {
	adj := carveAdj(len(src), func(u int) int { return len(src[u]) })
	for u := range adj {
		adj[u] = append(adj[u], src[u]...)
	}
	return adj
}

// New returns an empty graph with n nodes and capacity hint edgeCap.
func New(n int, edgeCap int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes exceed the limit of %d", n, math.MaxInt32))
	}
	return &Graph{
		n:     n,
		edges: make([]Edge, 0, edgeCap),
		adj:   make([][]Arc, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges (parallel edges counted separately).
func (g *Graph) NumEdges() int { return len(g.edges) }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 { return g.totalWeight }

// Edges returns the edge slice. Callers must not mutate it directly;
// use SetWeight/ScaleWeight so cached aggregates stay consistent.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Adj returns the adjacency list of node u: one Arc per incident edge.
func (g *Graph) Adj(u int) []Arc { return g.adj[u] }

// Degree returns the number of incident edges of u (parallel edges counted).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// WeightedDegree returns the sum of the weights of edges incident to u.
func (g *Graph) WeightedDegree(u int) float64 {
	var s float64
	for _, a := range g.adj[u] {
		s += g.edges[a.Edge].W
	}
	return s
}

// Snapshot returns an immutable-by-convention copy-on-write view of g in
// O(1): both graphs share the edge and adjacency storage until either side
// mutates, at which point the mutating side deep-copies its storage first:
// one O(N+E) copy per snapshot generation into a constant number of
// allocations (the edges and one adjacency arena), amortized over the whole
// write batch that follows. Snapshots are safe to read from any number of
// goroutines while the live graph keeps mutating, which is what the
// concurrent service layer relies on for snapshot-isolated queries.
func (g *Graph) Snapshot() *Graph {
	// Only write the flag when it actually flips: snapshots of an
	// already-shared graph (e.g. handing a published service snapshot to an
	// API caller) may be taken from many goroutines at once, and skipping
	// the redundant store keeps that path write-free.
	if !g.shared {
		g.shared = true
	}
	return &Graph{
		n:           g.n,
		edges:       g.edges,
		adj:         g.adj,
		totalWeight: g.totalWeight,
		shared:      true,
	}
}

// unshare deep-copies storage shared with snapshots so an impending
// mutation cannot be observed by concurrent snapshot readers. The edges go
// to one new slice and every adjacency list to one carved arena, both with
// growth headroom: unshare is usually triggered by the first AddEdge of a
// write batch, and an exact-capacity copy would reallocate again on the
// very next append.
func (g *Graph) unshare() {
	if !g.shared {
		return
	}
	g.edges = append(make([]Edge, 0, len(g.edges)+len(g.edges)/8+8), g.edges...)
	g.adj = copyAdj(g.adj)
	g.shared = false
}

// AddNode appends a new isolated node and returns its identifier.
func (g *Graph) AddNode() int {
	if g.n >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: AddNode past the limit of %d nodes", math.MaxInt32))
	}
	g.unshare()
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// AddEdge inserts the undirected edge (u, v) with weight w and returns its
// stable edge index. It panics on out-of-range endpoints, self-loops, or
// non-positive / non-finite weights: every algorithm in this repository
// assumes a positive conductance model.
func (g *Graph) AddEdge(u, v int, w float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0, %d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d rejected", u))
	}
	if !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: edge weight %v must be positive and finite", w))
	}
	idx := len(g.edges)
	if idx >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: AddEdge past the limit of %d edges", math.MaxInt32))
	}
	g.unshare()
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], Arc{To: int32(v), Edge: int32(idx)})
	g.adj[v] = append(g.adj[v], Arc{To: int32(u), Edge: int32(idx)})
	g.totalWeight += w
	return idx
}

// SetWeight replaces the weight of edge i.
func (g *Graph) SetWeight(i int, w float64) {
	if !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: edge weight %v must be positive and finite", w))
	}
	g.unshare()
	g.totalWeight += w - g.edges[i].W
	g.edges[i].W = w
}

// AddWeight increments the weight of edge i by delta (merging a parallel
// edge into an existing one). The resulting weight must stay positive.
func (g *Graph) AddWeight(i int, delta float64) {
	g.SetWeight(i, g.edges[i].W+delta)
}

// ScaleWeight multiplies the weight of edge i by factor.
func (g *Graph) ScaleWeight(i int, factor float64) {
	g.SetWeight(i, g.edges[i].W*factor)
}

// FindEdge returns the index of some edge between u and v and true, or
// (-1, false) if none exists. It scans the shorter adjacency list, so the
// cost is O(min(deg(u), deg(v))).
func (g *Graph) FindEdge(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return -1, false
	}
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, arc := range g.adj[a] {
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

// Clone returns a deep copy of g. Its adjacency lists are carved from one
// arena with headroom (see the package doc).
func (g *Graph) Clone() *Graph {
	return &Graph{
		n:           g.n,
		edges:       append(make([]Edge, 0, len(g.edges)), g.edges...),
		adj:         copyAdj(g.adj),
		totalWeight: g.totalWeight,
	}
}

// Subgraph returns a new graph over the same node set containing exactly
// the edges whose indices appear in keep (in that order).
func (g *Graph) Subgraph(keep []int) *Graph {
	s := New(g.n, len(keep))
	for _, i := range keep {
		e := g.edges[i]
		s.AddEdge(e.U, e.V, e.W)
	}
	return s
}

// Coalesce returns a simple graph in which parallel edges have been merged
// by summing their weights. Edge order follows first occurrence.
func (g *Graph) Coalesce() *Graph {
	s := New(g.n, len(g.edges))
	at := make(map[uint64]int, len(g.edges))
	for _, e := range g.edges {
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
	for _, e := range g.edges {
		d := x[e.U] - x[e.V]
		s += float64(e.W * d * d)
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
	for _, e := range g.edges {
		d := e.W * (x[e.U] - x[e.V])
		dst[e.U] += d
		dst[e.V] -= d
	}
}

// DegreeVector returns the weighted degree of every node (the Laplacian
// diagonal).
func (g *Graph) DegreeVector() []float64 {
	d := make([]float64, g.n)
	for _, e := range g.edges {
		d[e.U] += e.W
		d[e.V] += e.W
	}
	return d
}

// Validate performs internal consistency checks (adjacency mirrors the edge
// list, cached totals correct) and returns the first problem found. It is
// meant for tests and debug assertions, not hot paths.
func (g *Graph) Validate() error {
	if len(g.adj) != g.n {
		return fmt.Errorf("graph: %d adjacency lists for %d nodes", len(g.adj), g.n)
	}
	var tw float64
	deg := make([]int, g.n)
	for i, e := range g.edges {
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
	for u := range g.adj {
		if len(g.adj[u]) != deg[u] {
			return fmt.Errorf("graph: node %d adjacency length %d != degree %d", u, len(g.adj[u]), deg[u])
		}
		for _, a := range g.adj[u] {
			if a.Edge < 0 || int(a.Edge) >= len(g.edges) {
				return fmt.Errorf("graph: node %d has arc to invalid edge %d", u, a.Edge)
			}
			e, to := g.edges[a.Edge], int(a.To)
			if (e.U != u || e.V != to) && (e.V != u || e.U != to) {
				return fmt.Errorf("graph: node %d arc (%d, edge %d) disagrees with edge (%d,%d)", u, a.To, a.Edge, e.U, e.V)
			}
		}
	}
	return nil
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{N=%d, E=%d, W=%.4g}", g.n, len(g.edges), g.totalWeight)
}
