// Package tree implements the spanning-tree substrate required by GRASS
// style sparsifiers: maximum-weight (Kruskal, Prim) and AKPW-flavored
// low-stretch spanning trees, a constant-time tree-path effective-resistance
// oracle (Euler tour + sparse-table LCA), and stretch statistics.
//
// A spanning tree of the input graph is the backbone of the initial
// sparsifier: off-tree edges are then ranked by spectral distortion
// (weight x tree-path resistance) and the best ones appended.
package tree

import (
	"fmt"

	"ingrass/internal/graph"
)

// SpanningTree is a rooted spanning forest of a host graph, described by the
// indices of the tree edges within the host graph's edge list.
type SpanningTree struct {
	G       *graph.Graph
	EdgeIdx []int // edge indices of G forming the forest

	// Rooted representation, computed by the constructor:
	Parent     []int // parent node id, -1 for roots
	ParentEdge []int // edge index in G of the edge to the parent, -1 for roots
	Order      []int // nodes in BFS order, roots first within their component
	Depth      []int // hop depth from the component root
	Roots      []int // one root per component
}

// New builds the rooted forest for the given tree edge set. It panics if
// edgeIdx contains a cycle (i.e. is not a forest), since that indicates a
// bug in the caller's tree construction.
func New(g *graph.Graph, edgeIdx []int) *SpanningTree {
	n := g.NumNodes()
	t := &SpanningTree{
		G:          g,
		EdgeIdx:    append([]int(nil), edgeIdx...),
		Parent:     make([]int, n),
		ParentEdge: make([]int, n),
		Depth:      make([]int, n),
	}
	// Adjacency restricted to tree edges, in one counted arena: node u's
	// arcs are adj[start[u]:start[u+1]], in edgeIdx order.
	uf := graph.NewUnionFind(n)
	start := make([]int, n+1)
	for _, ei := range edgeIdx {
		e := g.Edge(ei)
		if !uf.Union(e.U, e.V) {
			panic(fmt.Sprintf("tree: edge set contains cycle at edge %d (%d-%d)", ei, e.U, e.V))
		}
		start[e.U+1]++
		start[e.V+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	adj := make([]graph.Arc, start[n])
	next := append([]int(nil), start[:n]...)
	for _, ei := range edgeIdx {
		e := g.Edge(ei)
		adj[next[e.U]] = graph.Arc{To: int32(e.V), Edge: int32(ei)}
		next[e.U]++
		adj[next[e.V]] = graph.Arc{To: int32(e.U), Edge: int32(ei)}
		next[e.V]++
	}
	for i := range t.Parent {
		t.Parent[i] = -2 // unvisited sentinel
		t.ParentEdge[i] = -1
	}
	t.Order = make([]int, 0, n)
	for s := 0; s < n; s++ {
		if t.Parent[s] != -2 {
			continue
		}
		t.Roots = append(t.Roots, s)
		t.Parent[s] = -1
		t.Depth[s] = 0
		head := len(t.Order)
		t.Order = append(t.Order, s)
		for head < len(t.Order) {
			u := t.Order[head]
			head++
			for _, a := range adj[start[u]:start[u+1]] {
				if t.Parent[a.To] == -2 {
					t.Parent[a.To] = u
					t.ParentEdge[a.To] = int(a.Edge)
					t.Depth[a.To] = t.Depth[u] + 1
					t.Order = append(t.Order, int(a.To))
				}
			}
		}
	}
	return t
}

// NumComponents returns the number of trees in the forest.
func (t *SpanningTree) NumComponents() int { return len(t.Roots) }

// IsSpanning reports whether the forest is a single spanning tree of a
// connected host graph (N-1 edges, one component).
func (t *SpanningTree) IsSpanning() bool {
	return len(t.Roots) == 1 && len(t.EdgeIdx) == t.G.NumNodes()-1
}

// InTree returns a boolean mask over the host graph's edge indices marking
// tree membership.
func (t *SpanningTree) InTree() []bool {
	mask := make([]bool, t.G.NumEdges())
	for _, ei := range t.EdgeIdx {
		mask[ei] = true
	}
	return mask
}

// OffTreeEdges returns the indices of host edges not in the forest.
func (t *SpanningTree) OffTreeEdges() []int {
	mask := t.InTree()
	out := make([]int, 0, t.G.NumEdges()-len(t.EdgeIdx))
	for i := range mask {
		if !mask[i] {
			out = append(out, i)
		}
	}
	return out
}

// TotalWeight returns the sum of tree edge weights.
func (t *SpanningTree) TotalWeight() float64 {
	var s float64
	for _, ei := range t.EdgeIdx {
		s += t.G.Edge(ei).W
	}
	return s
}
