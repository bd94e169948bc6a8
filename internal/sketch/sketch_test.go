package sketch

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
)

func grid(r, c int) *graph.Graph {
	g := graph.New(r*c, 2*r*c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), 1)
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return g
}

func decompose(t *testing.T, g *graph.Graph) *lrd.Decomposition {
	t.Helper()
	d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// indexed returns a structure over g indexed at level l of d.
func indexed(t *testing.T, d *lrd.Decomposition, g *graph.Graph, l int) *Structure {
	t.Helper()
	s, err := New(d, g)
	if err != nil {
		t.Fatal(err)
	}
	s.Index(l)
	return s
}

func TestNewRejectsMismatch(t *testing.T) {
	d := decompose(t, grid(4, 4))
	if _, err := New(d, grid(3, 3)); err == nil {
		t.Fatal("expected node-count mismatch error")
	}
}

// Brute-force check of pair connectivity against the definition, at every
// level: each crossing edge's cluster pair lists as many edges as a scan of
// the graph finds, and a same-cluster pair lists none.
func TestPairIndexMatchesBruteForce(t *testing.T) {
	g := grid(6, 6)
	d := decompose(t, g)
	for l := 1; l < d.Levels; l++ {
		s := indexed(t, d, g, l)
		want := map[uint64]int{}
		for _, e := range g.All() {
			cu, cv := d.ClusterID(l, e.U), d.ClusterID(l, e.V)
			if cu != cv {
				want[pairKey(cu, cv)]++
			}
		}
		for _, e := range g.All() {
			cu, cv := d.ClusterID(l, e.U), d.ClusterID(l, e.V)
			got := s.PairEdges(e.U, e.V)
			if cu == cv {
				if got != nil {
					t.Fatalf("level %d: same-cluster pair lists edges %v", l, got)
				}
				continue
			}
			if len(got) != want[pairKey(cu, cv)] {
				t.Fatalf("level %d pair (%d,%d): %d edges, want %d", l, cu, cv, len(got), want[pairKey(cu, cv)])
			}
		}
	}
}

// Every edge listed for a cluster pair connects that pair, at every level,
// and a crossing edge is listed for its own pair.
func TestConnectingEdgeIsValid(t *testing.T) {
	g := grid(5, 5)
	d := decompose(t, g)
	for l := 1; l < d.Levels; l++ {
		s := indexed(t, d, g, l)
		for ei, e := range g.All() {
			if s.SameCluster(e.U, e.V) {
				continue
			}
			got := s.PairEdges(e.U, e.V)
			if !slices.Contains(got, int32(ei)) {
				t.Fatalf("level %d: crossing edge %d missing from its pair's list %v", l, ei, got)
			}
			cu, cv := d.ClusterID(l, e.U), d.ClusterID(l, e.V)
			for _, x := range got {
				pe := g.Edge(int(x))
				if ru, rv := d.ClusterID(l, pe.U), d.ClusterID(l, pe.V); pairKey(ru, rv) != pairKey(cu, cv) {
					t.Fatalf("level %d: edge %d listed for pair (%d,%d) connects (%d,%d)", l, x, cu, cv, ru, rv)
				}
			}
		}
	}
}

// Every edge is internal to exactly the clusters of its shared level and
// above; IntraClusterEdges at the top level must therefore return every
// edge of a connected graph.
func TestIntraClusterEdgesTopLevel(t *testing.T) {
	g := grid(5, 5)
	d := decompose(t, g)
	top := d.Levels - 1
	if d.NumClusters[top] != 1 {
		t.Skip("grid did not contract to one cluster")
	}
	all := indexed(t, d, g, top).IntraClusterEdges(0)
	seen := map[int32]bool{}
	for _, ei := range all {
		if seen[ei] {
			t.Fatalf("edge %d returned twice", ei)
		}
		seen[ei] = true
	}
	if len(all) != g.NumEdges() {
		t.Fatalf("top-level intra edges %d, want all %d", len(all), g.NumEdges())
	}
}

// Intra edges of a cluster must have both endpoints inside that cluster.
func TestIntraClusterEdgesMembership(t *testing.T) {
	g := grid(6, 6)
	d := decompose(t, g)
	for l := 1; l < d.Levels; l++ {
		s := indexed(t, d, g, l)
		for v := 0; v < d.N; v += 5 {
			target := d.ClusterID(l, v)
			for _, ei := range s.IntraClusterEdges(v) {
				e := g.Edge(int(ei))
				if d.ClusterID(l, e.U) != target || d.ClusterID(l, e.V) != target {
					t.Fatalf("level %d: edge %d leaks outside cluster %d", l, ei, target)
				}
			}
		}
	}
}

// Registering a new sparsifier edge appends it to the pair list at every
// level where its endpoints are in different clusters, and to the span of
// its cluster at its shared level.
func TestRegisterNewEdge(t *testing.T) {
	g := grid(6, 6)
	d := decompose(t, g)
	// A long-range edge between opposite corners.
	p, q := 0, 35
	lShared := d.SharedLevel(p, q)
	if lShared <= 1 {
		t.Skip("corners co-clustered too early for this test")
	}
	levels := make([]*Structure, lShared+1)
	before := make([]int, lShared)
	for l := 1; l <= lShared; l++ {
		levels[l] = indexed(t, d, g, l)
		if l < lShared {
			before[l] = len(levels[l].PairEdges(p, q))
		}
	}
	ei := g.AddEdge(p, q, 2)
	for l := 1; l <= lShared; l++ {
		levels[l].Register(ei)
	}
	for l := 1; l < lShared; l++ {
		got := levels[l].PairEdges(p, q)
		if len(got) != before[l]+1 || got[len(got)-1] != int32(ei) {
			t.Fatalf("level %d pair list %v, want %d edges ending in %d", l, got, before[l]+1, ei)
		}
	}
	if !slices.Contains(levels[lShared].IntraClusterEdges(p), int32(ei)) {
		t.Fatal("new edge missing from the span of its cluster at its shared level")
	}
}

func TestAccessors(t *testing.T) {
	g := grid(4, 4)
	d := decompose(t, g)
	s, err := New(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Level() != 0 || s.MemoryFootprint() != 0 {
		t.Fatalf("unindexed structure: level %d, footprint %d; want 0, 0", s.Level(), s.MemoryFootprint())
	}
	s.Index(1)
	if s.Level() != 1 || s.MemoryFootprint() <= 0 {
		t.Fatalf("indexed structure: level %d, footprint %d; want 1 and positive", s.Level(), s.MemoryFootprint())
	}
}

// levelEntries counts level l's connected cluster pairs and the edges of g
// internal to a level-l cluster: what an indexed structure's footprint
// counts while its spans are current.
func levelEntries(d *lrd.Decomposition, g *graph.Graph, l int) (pairs, internal int) {
	seen := map[uint64]bool{}
	for _, e := range g.All() {
		if cu, cv := d.ClusterID(l, e.U), d.ClusterID(l, e.V); cu == cv {
			internal++
		} else if k := pairKey(cu, cv); !seen[k] {
			seen[k] = true
			pairs++
		}
	}
	return pairs, internal
}

// Index builds one level, once: a level below 1 or a second call panics,
// and the footprint counts exactly that level's entries, its connected
// cluster pairs and one span entry per edge internal to a cluster.
func TestIndexPairsMaterializesOnce(t *testing.T) {
	g := grid(6, 6)
	d := decompose(t, g)
	if d.Levels < 3 {
		t.Skip("grid hierarchy too shallow")
	}
	for _, l := range []int{0, -1} {
		s, _ := New(d, g)
		if !panics(func() { s.Index(l) }) {
			t.Fatalf("Index(%d) did not panic", l)
		}
	}
	s := indexed(t, d, g, 2)
	if !panics(func() { s.Index(2) }) || !panics(func() { s.Index(1) }) {
		t.Fatal("a second Index did not panic")
	}
	if pairs, internal := levelEntries(d, g, 2); s.MemoryFootprint() != pairs+internal {
		t.Fatalf("footprint %d, want level-2 pairs plus internal edges %d", s.MemoryFootprint(), pairs+internal)
	}
}

// The spans are built once and kept by an edge that crosses two clusters.
// An edge inside a cluster marks them stale (no span entries) until the
// next query rebuilds them.
func TestIndexIntraMaterializesOnce(t *testing.T) {
	g := grid(6, 6)
	d := decompose(t, g)
	if d.Levels < 3 {
		t.Skip("grid hierarchy too shallow")
	}
	s := indexed(t, d, g, 2)
	// Two nodes in one level-2 cluster, then two that never share one below
	// level 3.
	var in, cross [2]int
	in[0], cross[0] = -1, -1
	for u := 0; u < d.N; u++ {
		for v := u + 1; v < d.N; v++ {
			switch l := d.SharedLevel(u, v); {
			case l >= 1 && l <= 2 && in[0] < 0:
				in = [2]int{u, v}
			case l >= 3 && cross[0] < 0:
				cross = [2]int{u, v}
			}
		}
	}
	if in[0] < 0 || cross[0] < 0 {
		t.Skip("grid hierarchy lacks an internal or a crossing pair at level 2")
	}
	s.Register(g.AddEdge(cross[0], cross[1], 1))
	if pairs, internal := levelEntries(d, g, 2); s.MemoryFootprint() != pairs+internal {
		t.Fatalf("footprint %d after a crossing edge, want %d: the spans must stay", s.MemoryFootprint(), pairs+internal)
	}
	ei := g.AddEdge(in[0], in[1], 1)
	s.Register(ei)
	if pairs, _ := levelEntries(d, g, 2); s.MemoryFootprint() != pairs {
		t.Fatalf("footprint %d after an internal edge, want the %d pairs alone: the spans must be stale", s.MemoryFootprint(), pairs)
	}
	if !slices.Contains(s.IntraClusterEdges(in[0]), int32(ei)) {
		t.Fatal("the rebuilt span lacks the internal edge")
	}
	if pairs, internal := levelEntries(d, g, 2); s.MemoryFootprint() != pairs+internal {
		t.Fatalf("footprint %d after the rebuild, want %d", s.MemoryFootprint(), pairs+internal)
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func TestPairKeySymmetry(t *testing.T) {
	if pairKey(3, 9) != pairKey(9, 3) {
		t.Fatal("pairKey must be symmetric")
	}
	if pairKey(3, 9) == pairKey(3, 8) {
		t.Fatal("distinct pairs collide")
	}
}

// Register accepts only the next unregistered edge index: a duplicate or a
// gap would make an index built later differ from one kept current.
func TestRegisterRejectsOutOfOrder(t *testing.T) {
	g := grid(4, 4)
	s := indexed(t, decompose(t, g), g, 1)
	next := g.NumEdges()
	g.AddEdge(0, 15, 1)
	g.AddEdge(3, 12, 1)
	for _, ei := range []int{next - 1, 0, next + 1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("sketch: Register(%d) out of order: next unregistered edge is %d", ei, next)
				if msg != want {
					t.Fatalf("Register(%d): panic %q, want %q", ei, msg, want)
				}
			}()
			s.Register(ei)
		}()
	}
	s.Register(next)
	s.Register(next + 1)
	if !panics(func() { s.Register(next + 1) }) {
		t.Fatal("registering an edge twice did not panic")
	}
	for _, ei := range []int{next, next + 1} {
		e := g.Edge(ei)
		if s.SameCluster(e.U, e.V) && !slices.Contains(s.IntraClusterEdges(e.U), int32(ei)) ||
			!s.SameCluster(e.U, e.V) && !slices.Contains(s.PairEdges(e.U, e.V), int32(ei)) {
			t.Fatalf("in-order registration %d missing from the index", ei)
		}
	}
}

// TestIndexRetainedHeap holds the heap a structure retains once indexed at
// the filter level to a bound set from measurement. The fixture is the
// stream-mesh setup at a quarter of its size: H(0) at density 0.10 of a
// 16,384-node Delaunay mesh, filter level for a target condition number of
// 100. The structure retains 306,176 bytes there (Go 1.24, amd64), 65,536
// of them the filter level's per-node labels; one that also kept every
// level's cluster edge lists and the containment tree retained 1,285,696.
func TestIndexRetainedHeap(t *testing.T) {
	const bound = 320_000
	g, err := gen.Delaunay(16384, 1)
	if err != nil {
		t.Fatal(err)
	}
	init, err := grass.InitialSparsifier(g, 0.10, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := decompose(t, init.H)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := indexed(t, d, init.H, d.FilterLevel(100))
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("level %d of %d: %d index entries, %d bytes retained (bound %d)", s.Level(), d.Levels, s.MemoryFootprint(), retained, bound)
	if retained > bound {
		t.Fatalf("an indexed structure retains %d bytes, over the bound of %d", retained, bound)
	}
	runtime.KeepAlive(s)
}
