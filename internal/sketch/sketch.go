// Package sketch implements the paper's "multilevel sparse data structure"
// (setup phase 3): for each LRD level it indexes which cluster pairs are
// already connected by a sparsifier edge and which sparsifier edges lie
// inside each cluster. The update phase consults it to decide, in O(log N)
// per new edge, whether the edge is spectrally unique (include), redundant
// with an existing inter-cluster edge (merge weights), or internal to a
// cluster (discard and redistribute weight).
//
// The structure is maintained incrementally: when the update phase admits a
// new edge into the sparsifier, Register records it as an intra-cluster
// edge at the level where its endpoints first share a cluster, and in the
// pair index of every level below that which is materialized. The update
// phase reads one level only (the filter level), so a level's two query
// indexes are built on first use, by IndexPairs/IndexIntra or a query, from
// the edges registered so far:
//
//   - the pair index maps each connected cluster pair to its edges;
//   - the intra-span index lays every cluster's internal edges (its own,
//     then each child cluster's subtree, in containment-tree order) out as
//     one contiguous span of a flat array, so a query is a slice, not a
//     walk of the cluster tree.
//
// Edges are registered in index order, so a level built late holds exactly
// the lists an eagerly built one would. An edge that becomes internal at
// level l changes the spans of every level >= l, so Register drops those
// levels' span indexes and the next query rebuilds them; an edge the update
// phase includes crosses the filter level's clusters and leaves its spans
// intact.
package sketch

import (
	"fmt"
	"math"

	"ingrass/internal/graph"
	"ingrass/internal/lrd"
)

// pairKey packs two dense cluster ids into a map key.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// PairInfo describes the sparsifier edges connecting a cluster pair at some
// level.
type PairInfo struct {
	// Edges lists every sparsifier edge index connecting the pair, in
	// registration order. Weight merges of redundant new edges are spread
	// proportionally across them: concentrating the weight on a single
	// representative would overweight that edge relative to the original
	// graph and collapse the pencil's smallest eigenvalue.
	Edges []int
}

// Edge returns the representative (first-registered) edge index.
func (p PairInfo) Edge() int { return p.Edges[0] }

// Count returns the number of edges connecting the pair.
func (p PairInfo) Count() int { return len(p.Edges) }

// Structure is the multilevel cluster-connectivity index for one sparsifier
// graph against one LRD decomposition. It is not safe for concurrent use:
// besides Register, a pair query may build its level.
type Structure struct {
	d *lrd.Decomposition
	h *graph.Graph

	// pairs[l] maps cluster-pair key -> PairInfo at level l >= 1. It is nil
	// until level l is materialized (see IndexPairs).
	pairs []map[uint64]PairInfo
	// intra[l][c] lists the sparsifier edges whose both endpoints lie in
	// cluster c at level l but NOT at level l-1 (the level at which the
	// edge becomes internal). Each edge is stored at exactly one level,
	// keeping memory O(E).
	intra [][][]int32
	// children[l][c] lists the level-(l-1) cluster ids contained in level-l
	// cluster c, enabling full descent when collecting a cluster's internal
	// edges.
	children [][][]int32
	// spans[l] is level l's intra-span index. Its off is nil until level l
	// is materialized (see IndexIntra) and again after Register adds an
	// edge internal at level l or below.
	spans []intraSpans
	// registered counts the registered edges: exactly H's edges
	// [0, registered), in index order.
	registered int
}

// intraSpans is one level's flattened intra-cluster index: cluster c's
// internal edges, in descent order (see appendIntra), are
// edges[off[c]:off[c+1]].
type intraSpans struct {
	off   []int32
	edges []int32
}

// New indexes the sparsifier h against decomposition d. h must be the graph
// the decomposition was built from (same node set).
func New(d *lrd.Decomposition, h *graph.Graph) (*Structure, error) {
	if h.NumNodes() != d.N {
		return nil, fmt.Errorf("sketch: sparsifier has %d nodes, decomposition %d", h.NumNodes(), d.N)
	}
	s := &Structure{
		d:     d,
		h:     h,
		pairs: make([]map[uint64]PairInfo, d.Levels),
		intra: make([][][]int32, d.Levels),
		spans: make([]intraSpans, d.Levels),
	}
	for l := 1; l < d.Levels; l++ {
		s.intra[l] = make([][]int32, d.NumClusters[l])
	}

	// Build the cluster containment tree. A level-(l-1) cluster's parent is
	// the level-l cluster of any of its member nodes; scan nodes once per
	// level marking first representatives.
	s.children = make([][][]int32, d.Levels)
	for l := 2; l < d.Levels; l++ {
		s.children[l] = make([][]int32, d.NumClusters[l])
		seen := make([]bool, d.NumClusters[l-1])
		for v := 0; v < d.N; v++ {
			child := d.ClusterID(l-1, v)
			if seen[child] {
				continue
			}
			seen[child] = true
			parent := d.ClusterID(l, v)
			s.children[l][parent] = append(s.children[l][parent], child)
		}
	}

	for ei := range h.NumEdges() {
		s.Register(ei)
	}
	return s, nil
}

// Advance re-points the structure at h, a longer view of the same
// sparsifier it currently indexes, and registers the edges appended since
// the structure was built. It is the catch-up step for setup bases built
// offline on a COW snapshot: the background rebuild indexes the frozen
// snapshot, then Advance folds in whatever the writer admitted while the
// build ran. Because Register consults only an edge's endpoints and the
// decomposition's (immutable) cluster ids — never edge weights — the result
// is bit-identical to having built the structure against h directly.
func (s *Structure) Advance(h *graph.Graph) error {
	if h.NumNodes() != s.d.N {
		return fmt.Errorf("sketch: advance graph has %d nodes, decomposition %d", h.NumNodes(), s.d.N)
	}
	if h.NumEdges() < s.registered {
		return fmt.Errorf("sketch: advance graph has %d edges, structure already indexes %d", h.NumEdges(), s.registered)
	}
	s.h = h
	for ei := s.registered; ei < h.NumEdges(); ei++ {
		s.Register(ei)
	}
	return nil
}

// Decomposition returns the underlying LRD decomposition.
func (s *Structure) Decomposition() *lrd.Decomposition { return s.d }

// Sparsifier returns the indexed sparsifier graph.
func (s *Structure) Sparsifier() *graph.Graph { return s.h }

// Register indexes sparsifier edge ei: as an intra edge at the level its
// endpoints first share a cluster, and in every materialized pair index
// below it. The span indexes of that level and above no longer hold all of
// their clusters' internal edges, so Register drops them. Call it after
// appending a new edge to the sparsifier. Edges must be registered in index
// order, each once: Register panics unless ei is the next unregistered
// index, or if ei does not fit the int32 span entries.
func (s *Structure) Register(ei int) {
	if ei != s.registered {
		panic(fmt.Sprintf("sketch: Register(%d) out of order: next unregistered edge is %d", ei, s.registered))
	}
	if ei > math.MaxInt32 {
		panic(fmt.Sprintf("sketch: Register(%d): edge index exceeds the int32 index range", ei))
	}
	e := s.h.Edge(ei)
	s.registered++
	for l := 1; l < s.d.Levels; l++ {
		cu := s.d.ClusterID(l, e.U)
		cv := s.d.ClusterID(l, e.V)
		if cu == cv {
			// The edge becomes internal at this level; record it here only.
			s.intra[l][cu] = append(s.intra[l][cu], int32(ei))
			for k := l; k < s.d.Levels; k++ {
				s.spans[k] = intraSpans{}
			}
			break
		}
		if s.pairs[l] != nil {
			addPair(s.pairs[l], pairKey(cu, cv), ei)
		}
	}
}

func addPair(m map[uint64]PairInfo, k uint64, ei int) {
	info := m[k]
	info.Edges = append(info.Edges, ei)
	m[k] = info
}

// IndexPairs materializes the pair index of level l from the registered
// edges, scanned in index order, unless it already exists; Register keeps
// it current from then on. It reports whether this call built the index.
// Level 0 (singletons) and levels outside the hierarchy have no pair index.
// Queries materialize their level on first use; callers that must not pay
// the O(|E_H|) build on a hot path call IndexPairs ahead of time.
func (s *Structure) IndexPairs(l int) bool {
	if l < 1 || l >= s.d.Levels || s.pairs[l] != nil {
		return false
	}
	m := make(map[uint64]PairInfo)
	for ei := range s.registered {
		e := s.h.Edge(ei)
		// Clusters nest, so an edge crossing level l crosses every level
		// below it: exactly the edges an eager Register put here.
		if cu, cv := s.d.ClusterID(l, e.U), s.d.ClusterID(l, e.V); cu != cv {
			addPair(m, pairKey(cu, cv), ei)
		}
	}
	s.pairs[l] = m
	return true
}

// levelPairs returns level l's pair index, materializing it on first use.
func (s *Structure) levelPairs(l int) map[uint64]PairInfo {
	s.IndexPairs(l)
	return s.pairs[l]
}

// ConnectingEdge reports whether some sparsifier edge already connects the
// clusters of p and q at level l, returning the representative edge index.
// It must only be called when p and q are in different clusters at level l.
func (s *Structure) ConnectingEdge(l, p, q int) (int, bool) {
	es := s.PairEdges(l, p, q)
	if len(es) == 0 {
		return -1, false
	}
	return es[0], true
}

// PairEdges returns every sparsifier edge connecting the clusters of p and
// q at level l (nil if none or same cluster). Callers must not modify the
// returned slice.
func (s *Structure) PairEdges(l, p, q int) []int {
	cu := s.d.ClusterID(l, p)
	cv := s.d.ClusterID(l, q)
	if cu == cv {
		return nil
	}
	return s.levelPairs(l)[pairKey(cu, cv)].Edges
}

// PairCount returns how many sparsifier edges connect the clusters of p and
// q at level l (0 if none or same cluster).
func (s *Structure) PairCount(l, p, q int) int {
	return len(s.PairEdges(l, p, q))
}

// SameCluster reports whether p and q share a cluster at level l.
func (s *Structure) SameCluster(l, p, q int) bool {
	return s.d.ClusterID(l, p) == s.d.ClusterID(l, q)
}

// IndexIntra materializes the intra-span index of level l from the
// registered edges unless it already exists, and reports whether this call
// built it. Level 0 (singletons) and levels outside the hierarchy have no
// span index. The build walks each cluster's containment subtree once,
// O(registered edges + clusters at levels <= l); queries build their level
// on first use, and callers that must not pay that on a hot path call
// IndexIntra ahead of time.
func (s *Structure) IndexIntra(l int) bool {
	if l < 1 || l >= s.d.Levels || s.spans[l].off != nil {
		return false
	}
	total := 0
	for k := 1; k <= l; k++ {
		for _, es := range s.intra[k] {
			total += len(es)
		}
	}
	nc := s.d.NumClusters[l]
	off := make([]int32, nc+1)
	edges := make([]int32, 0, total)
	for c := range nc {
		edges = s.appendIntra(l, int32(c), edges)
		off[c+1] = int32(len(edges))
	}
	s.spans[l] = intraSpans{off: off, edges: edges}
	return true
}

// IntraClusterEdges returns every sparsifier edge internal to the cluster
// of node p at level l >= 1 (edges whose endpoints became co-clustered at
// any level <= l within this cluster's subtree): the cluster's own intra
// edges, then each child cluster's, depth first. The update phase
// redistributes discarded intra-cluster weight over these edges. The
// result is a view of one contiguous span of the level's index, built on
// first use (see IndexIntra); it is valid until the next Register and
// callers must not modify it.
func (s *Structure) IntraClusterEdges(l, p int) []int32 {
	s.IndexIntra(l)
	sp := &s.spans[l]
	c := s.d.ClusterID(l, p)
	lo, hi := sp.off[c], sp.off[c+1]
	return sp.edges[lo:hi:hi]
}

// appendIntra appends cluster c's intra edges at level, then its children's
// subtrees in order. It is the build step of IndexIntra.
func (s *Structure) appendIntra(level int, c int32, buf []int32) []int32 {
	buf = append(buf, s.intra[level][c]...)
	if level >= 2 {
		for _, child := range s.children[level][c] {
			buf = s.appendIntra(level-1, child, buf)
		}
	}
	return buf
}

// LevelPairs returns the number of connected cluster pairs recorded at
// level l (diagnostic).
func (s *Structure) LevelPairs(l int) int { return len(s.levelPairs(l)) }

// MemoryFootprint returns a rough count of stored index entries: every
// intra entry plus the cluster pairs and span entries of the materialized
// levels only (diagnostic).
func (s *Structure) MemoryFootprint() int {
	total := 0
	for l := 1; l < s.d.Levels; l++ {
		total += len(s.pairs[l]) + len(s.spans[l].edges)
		for _, v := range s.intra[l] {
			total += len(v)
		}
	}
	return total
}
