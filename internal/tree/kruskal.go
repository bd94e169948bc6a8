package tree

import (
	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// MaxWeight builds the maximum-weight spanning forest by Kruskal's
// algorithm. In the conductance model an edge's resistance is 1/w, so the
// maximum-weight tree is exactly the minimum-resistance tree — the standard
// practical stand-in for a low-stretch tree in the GRASS line of work.
//
// Ties are broken by edge index, making the result deterministic.
func MaxWeight(g *graph.Graph) *SpanningTree {
	edges := g.AppendEdges(nil)
	order := heaviestFirst(edges)
	uf := graph.NewUnionFind(g.NumNodes())
	keep := make([]int, 0, g.NumNodes()-1)
	for _, ei := range order {
		e := edges[ei]
		if uf.Union(e.U, e.V) {
			keep = append(keep, int(ei))
			if uf.Count() == 1 {
				break
			}
		}
	}
	return New(g, keep)
}

// heaviestFirst returns the edge indices ordered by weight, heaviest first,
// then by index.
func heaviestFirst(edges []graph.Edge) []int32 {
	w := make([]float64, len(edges))
	for i, e := range edges {
		w[i] = e.W
	}
	return vecmath.Order(w, true)
}

// Prim builds the maximum-weight spanning forest by Prim's algorithm with a
// binary heap, starting from node 0 (and restarting per component). It
// produces a tree of the same total weight as Kruskal on distinct-weight
// inputs and exists both as an independent cross-check in tests and because
// its traversal order (root-outward) is occasionally preferable.
func Prim(g *graph.Graph) *SpanningTree {
	n := g.NumNodes()
	inTree := make([]bool, n)
	keep := make([]int, 0, n-1)

	// Max-heap of candidate arcs keyed by weight.
	type item struct {
		w    float64
		node int
		edge int
	}
	heap := make([]item, 0, g.NumEdges())
	push := func(it item) {
		heap = append(heap, it)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].w >= heap[i].w {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && heap[l].w > heap[big].w {
				big = l
			}
			if r < len(heap) && heap[r].w > heap[big].w {
				big = r
			}
			if big == i {
				break
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
		return top
	}

	for start := 0; start < n; start++ {
		if inTree[start] {
			continue
		}
		inTree[start] = true
		for _, a := range g.Adj(start) {
			push(item{w: g.Edge(int(a.Edge)).W, node: int(a.To), edge: int(a.Edge)})
		}
		for len(heap) > 0 {
			it := pop()
			if inTree[it.node] {
				continue
			}
			inTree[it.node] = true
			keep = append(keep, it.edge)
			for _, a := range g.Adj(it.node) {
				if !inTree[a.To] {
					push(item{w: g.Edge(int(a.Edge)).W, node: int(a.To), edge: int(a.Edge)})
				}
			}
		}
	}
	return New(g, keep)
}
