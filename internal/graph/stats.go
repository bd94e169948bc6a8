package graph

import (
	"fmt"
	"sort"
)

// Stats summarizes a graph's size and degree distribution. The sparsifier
// experiment tables are assembled from these fields.
type Stats struct {
	Nodes      int
	Edges      int
	MinDegree  int
	MaxDegree  int
	MeanDegree float64
	MinWeight  float64
	MaxWeight  float64
	Components int
}

// Summarize computes Stats for g.
func Summarize(g *Graph) Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.Nodes == 0 {
		return s
	}
	s.MinDegree = g.Degree(0)
	for u := 0; u < s.Nodes; u++ {
		d := g.Degree(u)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.MeanDegree = 2 * float64(s.Edges) / float64(s.Nodes)
	if s.Edges > 0 {
		s.MinWeight = g.Edge(0).W
		s.MaxWeight = g.Edge(0).W
		for _, e := range g.All() {
			if e.W < s.MinWeight {
				s.MinWeight = e.W
			}
			if e.W > s.MaxWeight {
				s.MaxWeight = e.W
			}
		}
	}
	_, s.Components = Components(g)
	return s
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("N=%d E=%d deg[%d..%d] mean=%.2f w[%.3g..%.3g] comp=%d",
		s.Nodes, s.Edges, s.MinDegree, s.MaxDegree, s.MeanDegree,
		s.MinWeight, s.MaxWeight, s.Components)
}

// OffTreeDensity returns the density measure used throughout the paper's
// tables: the number of sparsifier edges beyond a spanning tree, as a
// fraction of the ORIGINAL graph's edge count.
//
//	D = (|E_H| - (N-1)) / |E_G|
//
// sparsifierEdges is |E_H|, nodes is N, originalEdges is |E_G|. Values are
// clamped at 0 for sub-tree inputs (disconnected intermediate states).
func OffTreeDensity(sparsifierEdges, nodes, originalEdges int) float64 {
	off := sparsifierEdges - (nodes - 1)
	if off < 0 {
		off = 0
	}
	if originalEdges == 0 {
		return 0
	}
	return float64(off) / float64(originalEdges)
}

// DegreeHistogram returns sorted (degree, count) pairs for diagnostics.
func DegreeHistogram(g *Graph) [][2]int {
	counts := map[int]int{}
	for u := 0; u < g.NumNodes(); u++ {
		counts[g.Degree(u)]++
	}
	out := make([][2]int, 0, len(counts))
	for d, c := range counts {
		out = append(out, [2]int{d, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
