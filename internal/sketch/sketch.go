// Package sketch implements the paper's "multilevel sparse data structure"
// (setup phase 3) at the one LRD level the update phase reads, the filter
// level. It indexes which clusters of that level are already connected by a
// sparsifier edge, and which sparsifier edges lie inside each cluster. The
// update phase consults it to decide, in O(log N) per new edge, whether the
// edge is spectrally unique (include), redundant with an existing
// inter-cluster edge (merge weights), or internal to a cluster (discard and
// redistribute weight).
//
// New records the sparsifier; Index(l) then builds level l's two query
// indexes from the edges registered so far:
//
//   - the pair index maps each connected cluster pair to its edges;
//   - the intra-span index lays every cluster's internal edges out as one
//     contiguous span of a flat array, so a query is a slice, not a walk of
//     the cluster tree. A cluster's span is a pre-order walk of its
//     containment subtree over levels l..1: the edges whose endpoints first
//     share a cluster at the cluster's own level, in index order, then each
//     child cluster's subtree, children ordered by their lowest node id.
//
// Register keeps the level current as the sparsifier grows. An edge that
// crosses two clusters joins the pair index. An edge inside a cluster
// changes that cluster's span, so Register marks the spans stale and the
// next query rebuilds them. The update phase only ever adds crossing edges;
// internal ones come from the deletion path's bridge repair and from the
// catch-up of a structure built offline (Advance).
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

// Structure is the cluster-connectivity index of one sparsifier graph at one
// level of an LRD decomposition. It is not safe for concurrent use: besides
// Register, a span query may rebuild the spans.
type Structure struct {
	d *lrd.Decomposition
	h *graph.Graph

	// level is the indexed level; 0 until Index.
	level int
	// labels[v] is node v's cluster at the indexed level, so a query reads
	// one array instead of walking the cluster tree; nil until Index, and
	// for a level above the hierarchy.
	labels []int32
	// pairs maps a cluster-pair key to the sparsifier edges connecting the
	// pair, in index order.
	pairs map[uint64][]int32
	// off and spans are the intra-span index: cluster c's internal edges
	// are spans[off[c]:off[c+1]]. Both are nil while the spans are stale.
	off   []int32
	spans []int32
	// registered counts the registered edges: exactly H's edges
	// [0, registered), in index order.
	registered int
}

// New records the sparsifier h, every edge of it registered, against
// decomposition d. h must be the graph the decomposition was built from
// (same node set). The structure answers no query until Index.
func New(d *lrd.Decomposition, h *graph.Graph) (*Structure, error) {
	if h.NumNodes() != d.N {
		return nil, fmt.Errorf("sketch: sparsifier has %d nodes, decomposition %d", h.NumNodes(), d.N)
	}
	if h.NumEdges() > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: sparsifier has %d edges, more than the int32 index range", h.NumEdges())
	}
	return &Structure{d: d, h: h, registered: h.NumEdges()}, nil
}

// Index builds the pair and span indexes of level l from the registered
// edges; Register keeps them current from then on. A structure indexes one
// level, once: Index panics on a second call or a level below 1. A level
// above the hierarchy holds nothing; only a single-node sparsifier, which
// has no level 1 and no edges, asks for one.
func (s *Structure) Index(l int) {
	if s.level != 0 || l < 1 {
		panic(fmt.Sprintf("sketch: Index(%d) on a structure at level %d: it indexes one level >= 1, once", l, s.level))
	}
	s.level = l
	s.pairs = make(map[uint64][]int32)
	if l >= s.d.Levels {
		return
	}
	s.labels = s.d.Labels(l)
	for ei := range s.registered {
		e := s.h.Edge(ei)
		if cu, cv := s.labels[e.U], s.labels[e.V]; cu != cv {
			k := pairKey(cu, cv)
			s.pairs[k] = append(s.pairs[k], int32(ei))
		}
	}
	s.buildSpans()
}

// Level returns the indexed level, 0 before Index.
func (s *Structure) Level() int { return s.level }

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

// Register indexes sparsifier edge ei at the indexed level: in the pair
// index if it crosses two clusters, otherwise by marking the spans stale.
// Call it after appending a new edge to the sparsifier. Edges must be
// registered in index order, each once: Register panics unless ei is the
// next unregistered index, or if ei does not fit the int32 span entries.
func (s *Structure) Register(ei int) {
	if ei != s.registered {
		panic(fmt.Sprintf("sketch: Register(%d) out of order: next unregistered edge is %d", ei, s.registered))
	}
	if ei > math.MaxInt32 {
		panic(fmt.Sprintf("sketch: Register(%d): edge index exceeds the int32 index range", ei))
	}
	s.registered++
	if s.level == 0 {
		return
	}
	e := s.h.Edge(ei)
	if cu, cv := s.labels[e.U], s.labels[e.V]; cu != cv {
		k := pairKey(cu, cv)
		s.pairs[k] = append(s.pairs[k], int32(ei))
	} else {
		s.off, s.spans = nil, nil
	}
}

// SameCluster reports whether p and q share a cluster at the indexed level.
func (s *Structure) SameCluster(p, q int) bool {
	return s.labels[p] == s.labels[q]
}

// PairEdges returns every sparsifier edge connecting the clusters of p and
// q at the indexed level, in index order (nil if none or same cluster).
// Weight merges of redundant new edges are spread proportionally across
// them: concentrating the weight on a single representative would
// overweight that edge relative to the original graph and collapse the
// pencil's smallest eigenvalue. Callers must not modify the result.
func (s *Structure) PairEdges(p, q int) []int32 {
	cu, cv := s.labels[p], s.labels[q]
	if cu == cv {
		return nil
	}
	return s.pairs[pairKey(cu, cv)]
}

// IntraClusterEdges returns every sparsifier edge internal to the cluster
// of node p at the indexed level, in the span order the package doc gives.
// The update phase redistributes discarded intra-cluster weight over these
// edges. The result is a view of one contiguous span of the index, rebuilt
// first if a registration made it stale; it is valid until the next
// Register and callers must not modify it.
func (s *Structure) IntraClusterEdges(p int) []int32 {
	if s.off == nil {
		s.buildSpans()
	}
	c := s.labels[p]
	lo, hi := s.off[c], s.off[c+1]
	return s.spans[lo:hi:hi]
}

// buildSpans lays out the span index of the indexed level l by counting,
// not by walking the containment tree per cluster. Clusters of levels 1..l
// are numbered in one id space. Each registered edge has a home, the
// cluster in which its endpoints first meet. Counting the edges under each
// cluster fixes where its pre-order subtree starts, and each edge then goes
// straight to its slot. It reads the decomposition's parent maps in cluster
// id order; ids ascend with each cluster's lowest node id (lrd.Build
// renumbers in first-seen order), so that is also the child order of the
// spans.
func (s *Structure) buildSpans() {
	d, l := s.d, s.level
	// Level k's cluster c is node base[k]+c.
	base := make([]int32, l+2)
	for k := 1; k <= l; k++ {
		base[k+1] = base[k] + int32(d.NumClusters[k])
	}
	nodes := base[l+1]
	// home[ei] is edge ei's home node, -1 if its endpoints first meet above
	// level l; own counts the edges homed at each node.
	home := make([]int32, s.registered)
	own := make([]int32, nodes)
	for ei := range home {
		e := s.h.Edge(ei)
		home[ei] = -1
		if s.labels[e.U] != s.labels[e.V] {
			continue // the endpoints first meet above level l
		}
		if k, c := d.Meet(e.U, e.V); k >= 1 {
			home[ei] = base[k] + c
			own[home[ei]]++
		}
	}
	// sub counts the edges in each node's subtree: level by level upward,
	// each cluster adds its subtree to its parent's.
	sub := append([]int32(nil), own...)
	for k := 1; k < l; k++ {
		for c, parent := range d.Up(k) {
			sub[base[k+1]+parent] += sub[base[k]+int32(c)]
		}
	}
	// Level-l clusters take consecutive spans in id order. Top down, each
	// node's own edges start its span (at) and its children follow from
	// next, in id order.
	off := make([]int32, d.NumClusters[l]+1)
	at := make([]int32, nodes)
	next := make([]int32, nodes)
	for c := range d.NumClusters[l] {
		x := base[l] + int32(c)
		at[x], next[x] = off[c], off[c]+own[x]
		off[c+1] = off[c] + sub[x]
	}
	for k := l; k > 1; k-- {
		for c, parent := range d.Up(k - 1) {
			x, p := base[k-1]+int32(c), base[k]+parent
			at[x], next[x] = next[p], next[p]+own[x]
			next[p] += sub[x]
		}
	}
	spans := make([]int32, off[len(off)-1])
	for ei, x := range home {
		if x >= 0 {
			spans[at[x]] = int32(ei)
			at[x]++
		}
	}
	s.off, s.spans = off, spans
}

// MemoryFootprint returns a rough count of stored index entries: the
// connected cluster pairs plus the span entries of the indexed level
// (diagnostic). Stale spans count as none.
func (s *Structure) MemoryFootprint() int {
	return len(s.pairs) + len(s.spans)
}
