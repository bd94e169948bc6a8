package core

import (
	"fmt"
	"math"
	"sort"

	"ingrass/internal/graph"
)

// Edge deletion is an EXTENSION beyond the paper (which handles only
// insertions; deletions appear as future work in the dynamic-sparsifier
// literature it cites). The implementation uses "soft deletion": a deleted
// edge's weight is reduced to a negligible epsilon relative to the graph's
// mean weight, which makes it spectrally invisible (its contribution to
// every quadratic form is ~1e-12 of typical) while preserving the stable
// edge indexing that the sketch relies on.
//
// When a deletion spectrally disconnects the sparsifier (the deleted edge
// was load-bearing, e.g. a tree edge), the highest-distortion original-graph
// edge crossing the resulting cut is promoted into H as a replacement, so H
// keeps spanning G.

// softDeleteFactor scales the mean weight down to the tombstone weight.
const softDeleteFactor = 1e-12

// DeleteResult describes how one deletion was handled.
type DeleteResult struct {
	Edge graph.Edge
	// InSparsifier reports whether the edge was present in H.
	InSparsifier bool
	// Replacement is the H edge index of a promoted replacement edge, or -1.
	Replacement int
}

// DeleteEdges removes the given edges from G (and from H when present).
// Each entry identifies an edge by endpoints; the weight field is ignored.
// Unknown or already-deleted edges produce an error before any mutation.
//
// Deletions are rarer than insertions in the incremental-EDA setting; this
// implementation favors correctness over speed and costs O(|H|) per
// deletion that requires a replacement search (bridge deletions), O(deg)
// otherwise.
func (s *Sparsifier) DeleteEdges(edges []graph.Edge) ([]DeleteResult, error) {
	// Validate first: all-or-nothing.
	type target struct {
		gIdx, hIdx int
	}
	targets := make([]target, len(edges))
	for i, e := range edges {
		gi, ok := s.G.FindEdge(e.U, e.V)
		if !ok {
			return nil, fmt.Errorf("core: DeleteEdges: no edge (%d, %d) in G", e.U, e.V)
		}
		if s.G.Edge(gi).W <= s.tombstoneWeight()*10 {
			return nil, fmt.Errorf("core: DeleteEdges: edge (%d, %d) already deleted", e.U, e.V)
		}
		hi := -1
		if idx, ok := s.H.FindEdge(e.U, e.V); ok {
			hi = idx
		}
		targets[i] = target{gIdx: gi, hIdx: hi}
	}

	results := make([]DeleteResult, 0, len(edges))
	for i, e := range edges {
		t := targets[i]
		res := DeleteResult{Edge: e, Replacement: -1}
		s.G.SetWeight(t.gIdx, s.tombstoneWeight())
		if t.hIdx >= 0 {
			res.InSparsifier = true
			s.H.SetWeight(t.hIdx, s.tombstoneWeight())
			if rep, ok := s.replaceIfBridge(e.U, e.V); ok {
				res.Replacement = rep
			}
		}
		s.stats.Deleted++
		results = append(results, res)
	}
	return results, nil
}

// tombstoneWeight returns the soft-deletion weight for the current graph.
func (s *Sparsifier) tombstoneWeight() float64 {
	mean := s.G.TotalWeight() / float64(s.G.NumEdges()+1)
	if mean <= 0 {
		mean = 1
	}
	return mean * softDeleteFactor
}

// replaceIfBridge checks whether u and v became spectrally disconnected in
// H (reachable only through tombstoned edges) and, if so, promotes the
// highest-distortion live G edge crossing the cut into H. Returns the new H
// edge index.
func (s *Sparsifier) replaceIfBridge(u, v int) (int, bool) {
	side := s.liveReachable(u)
	if side[v] {
		return -1, false // still connected through live edges
	}
	// Candidates: live G edges with exactly one endpoint on u's side.
	tomb := s.tombstoneWeight() * 10
	type cand struct {
		e graph.Edge
		d float64
	}
	var best cand
	found := false
	for _, e := range s.G.All() {
		if e.W <= tomb {
			continue
		}
		if side[e.U] == side[e.V] {
			continue
		}
		d := e.W * s.dec.ResistanceEstimate(e.U, e.V)
		if math.IsInf(d, 1) {
			d = e.W * 1e18 // no estimate: strongly prefer reconnecting
		}
		if !found || d > best.d {
			best = cand{e: e, d: d}
			found = true
		}
	}
	if !found {
		return -1, false // G itself is cut; nothing can reconnect H
	}
	ei := s.H.AddEdge(best.e.U, best.e.V, best.e.W)
	s.sk.Register(ei)
	s.stats.Promoted++
	return ei, true
}

// liveReachable returns the set of nodes reachable from start in H through
// edges with non-tombstone weight.
func (s *Sparsifier) liveReachable(start int) []bool {
	tomb := s.tombstoneWeight() * 10
	seen := make([]bool, s.H.NumNodes())
	seen[start] = true
	stack := []int{start}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range s.H.Adj(x) {
			if seen[a.To] || s.H.Edge(int(a.Edge)).W <= tomb {
				continue
			}
			seen[a.To] = true
			stack = append(stack, int(a.To))
		}
	}
	return seen
}

// CompactDeleted rebuilds G and H without tombstoned edges and re-runs the
// setup phase, returning the (possibly re-indexed) sparsifier. Long
// deletion streams should compact periodically: tombstones cost memory and
// slightly pollute resistance estimates.
func (s *Sparsifier) CompactDeleted() error {
	tomb := s.tombstoneWeight() * 10
	liveIdx := func(g *graph.Graph) []int {
		out := make([]int, 0, g.NumEdges())
		for i, e := range g.All() {
			if e.W > tomb {
				out = append(out, i)
			}
		}
		sort.Ints(out)
		return out
	}
	newG := s.G.Subgraph(liveIdx(s.G))
	newH := s.H.Subgraph(liveIdx(s.H))
	rebuilt, err := NewSparsifier(newG, newH, s.cfg)
	if err != nil {
		return fmt.Errorf("core: compaction rebuild: %w", err)
	}
	stats := s.stats
	*s = *rebuilt
	s.stats = stats
	return nil
}
