package tree

import "math"

// StretchStats summarizes the stretch of a graph's edges with respect to a
// spanning tree. The stretch of edge e = (u, v, w) is w * R_T(u, v): the
// ratio of the tree-path resistance to the edge's own resistance 1/w.
// Tree edges have stretch exactly 1; the total and average off-tree stretch
// are the standard quality measures for low-stretch trees.
type StretchStats struct {
	Total   float64 // sum of stretches over all edges
	Max     float64
	Mean    float64
	OffTree int // number of off-tree edges measured
}

// Stretch computes stretch statistics of every host-graph edge with respect
// to the forest. Edges whose endpoints fall in different forest components
// are skipped (they have infinite stretch; a spanning tree of a connected
// graph never produces them).
func Stretch(t *SpanningTree, o *PathOracle) StretchStats {
	var st StretchStats
	mask := t.InTree()
	count := 0
	for ei, e := range t.G.All() {
		var s float64
		if mask[ei] {
			s = 1
		} else {
			r := o.Resistance(e.U, e.V)
			if math.IsInf(r, 1) {
				continue
			}
			s = e.W * r
			st.OffTree++
		}
		st.Total += s
		if s > st.Max {
			st.Max = s
		}
		count++
	}
	if count > 0 {
		st.Mean = st.Total / float64(count)
	}
	return st
}
