package ingrass

import (
	"fmt"
	"io"

	"ingrass/internal/graph"
)

// Edge is a weighted undirected edge between node indices U and V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is a weighted undirected multigraph over nodes 0..N-1. Unlike the
// internal representation, public mutators return errors instead of
// panicking.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{g: graph.New(n, 0)}
}

// wrap adopts an internal graph.
func wrap(g *graph.Graph) *Graph { return &Graph{g: g} }

// NumNodes returns the node count.
func (p *Graph) NumNodes() int { return p.g.NumNodes() }

// NumEdges returns the edge count (parallel edges counted separately).
func (p *Graph) NumEdges() int { return p.g.NumEdges() }

// TotalWeight returns the sum of edge weights.
func (p *Graph) TotalWeight() float64 { return p.g.TotalWeight() }

// AddNode appends an isolated node and returns its index.
func (p *Graph) AddNode() int { return p.g.AddNode() }

// AddEdge inserts edge (u, v) with weight w and returns its index. It
// rejects self-loops, out-of-range endpoints, and non-positive weights.
func (p *Graph) AddEdge(u, v int, w float64) (int, error) {
	n := p.g.NumNodes()
	if u < 0 || u >= n || v < 0 || v >= n {
		return -1, fmt.Errorf("ingrass: endpoint out of range: (%d, %d) with %d nodes", u, v, n)
	}
	if u == v {
		return -1, fmt.Errorf("ingrass: self-loop (%d, %d) rejected", u, v)
	}
	if !(w > 0) {
		return -1, fmt.Errorf("ingrass: weight %v must be positive", w)
	}
	return p.g.AddEdge(u, v, w), nil
}

// Edges returns a copy of the edge list.
func (p *Graph) Edges() []Edge {
	out := make([]Edge, p.g.NumEdges())
	for i, e := range p.g.All() {
		out[i] = Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// Edge returns the i-th edge.
func (p *Graph) Edge(i int) (Edge, error) {
	if i < 0 || i >= p.g.NumEdges() {
		return Edge{}, fmt.Errorf("ingrass: edge index %d out of range", i)
	}
	e := p.g.Edge(i)
	return Edge{U: e.U, V: e.V, W: e.W}, nil
}

// HasEdge reports whether u and v are adjacent.
func (p *Graph) HasEdge(u, v int) bool { return p.g.HasEdge(u, v) }

// Degree returns the number of edges incident to u.
func (p *Graph) Degree(u int) int { return p.g.Degree(u) }

// Clone returns a deep copy.
func (p *Graph) Clone() *Graph { return wrap(p.g.Clone()) }

// IsConnected reports whether the graph has one connected component.
func (p *Graph) IsConnected() bool { return graph.IsConnected(p.g) }

// QuadraticForm evaluates x' L x for the graph Laplacian L.
func (p *Graph) QuadraticForm(x []float64) (float64, error) {
	if len(x) != p.g.NumNodes() {
		return 0, fmt.Errorf("ingrass: vector length %d != %d nodes", len(x), p.g.NumNodes())
	}
	return p.g.QuadraticForm(x), nil
}

// OffTreeDensity returns the paper's sparsifier density measure of p
// relative to an original graph with originalEdges edges:
// (|E| - (N-1)) / originalEdges.
func (p *Graph) OffTreeDensity(originalEdges int) float64 {
	return graph.OffTreeDensity(p.g.NumEdges(), p.g.NumNodes(), originalEdges)
}

// Write serializes the graph in the text edge-list format
// ("N M" header, then "u v w" lines; '#' comments allowed).
func (p *Graph) Write(w io.Writer) error { return graph.Write(w, p.g) }

// ReadGraph parses a graph in the text edge-list format.
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// String summarizes the graph.
func (p *Graph) String() string { return p.g.String() }
