package sketch

import (
	"fmt"
	"testing"

	"ingrass/internal/graph"
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

func build(t *testing.T, g *graph.Graph) (*lrd.Decomposition, *Structure) {
	t.Helper()
	d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(d, g)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestNewRejectsMismatch(t *testing.T) {
	g := grid(4, 4)
	d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(d, grid(3, 3)); err == nil {
		t.Fatal("expected node-count mismatch error")
	}
}

// Brute-force check of pair connectivity against the definition.
func TestPairIndexMatchesBruteForce(t *testing.T) {
	g := grid(6, 6)
	d, s := build(t, g)
	for l := 1; l < d.Levels; l++ {
		// Brute force: recompute pair counts by scanning all edges.
		want := map[uint64]int{}
		for _, e := range g.All() {
			cu, cv := d.ClusterID(l, e.U), d.ClusterID(l, e.V)
			if cu != cv {
				want[pairKey(cu, cv)]++
			}
		}
		if len(want) != s.LevelPairs(l) {
			t.Fatalf("level %d: %d pairs indexed, want %d", l, s.LevelPairs(l), len(want))
		}
		for _, e := range g.All() {
			cu, cv := d.ClusterID(l, e.U), d.ClusterID(l, e.V)
			if cu != cv {
				if got := s.PairCount(l, e.U, e.V); got != want[pairKey(cu, cv)] {
					t.Fatalf("level %d pair (%d,%d): count %d want %d", l, cu, cv, got, want[pairKey(cu, cv)])
				}
				if _, ok := s.ConnectingEdge(l, e.U, e.V); !ok {
					t.Fatalf("level %d: connecting edge missing for a connected pair", l)
				}
			} else if s.PairCount(l, e.U, e.V) != 0 {
				t.Fatal("same-cluster pair must report count 0")
			}
		}
	}
}

func TestConnectingEdgeIsValid(t *testing.T) {
	g := grid(5, 5)
	d, s := build(t, g)
	for l := 1; l < d.Levels; l++ {
		for _, e := range g.All() {
			if s.SameCluster(l, e.U, e.V) {
				continue
			}
			ei, ok := s.ConnectingEdge(l, e.U, e.V)
			if !ok {
				t.Fatal("existing edge not found")
			}
			rep := g.Edge(ei)
			// The representative must connect the same cluster pair.
			cu, cv := d.ClusterID(l, e.U), d.ClusterID(l, e.V)
			ru, rv := d.ClusterID(l, rep.U), d.ClusterID(l, rep.V)
			if pairKey(cu, cv) != pairKey(ru, rv) {
				t.Fatalf("representative edge connects (%d,%d), want (%d,%d)", ru, rv, cu, cv)
			}
		}
	}
}

// Every edge is internal to exactly the clusters of its shared level and
// above; IntraClusterEdges at the top level must therefore return every
// edge of a connected graph.
func TestIntraClusterEdgesTopLevel(t *testing.T) {
	g := grid(5, 5)
	d, s := build(t, g)
	top := d.Levels - 1
	if d.NumClusters[top] != 1 {
		t.Skip("grid did not contract to one cluster")
	}
	all := s.IntraClusterEdges(top, 0)
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
	d, s := build(t, g)
	for l := 1; l < d.Levels; l++ {
		for v := 0; v < d.N; v += 5 {
			target := d.ClusterID(l, v)
			for _, ei := range s.IntraClusterEdges(l, v) {
				e := g.Edge(int(ei))
				if d.ClusterID(l, e.U) != target || d.ClusterID(l, e.V) != target {
					t.Fatalf("level %d: edge %d leaks outside cluster %d", l, ei, target)
				}
			}
		}
	}
}

// Registering a new sparsifier edge updates pair indexes at every level
// where the endpoints are in different clusters.
func TestRegisterNewEdge(t *testing.T) {
	g := grid(6, 6)
	d, s := build(t, g)
	// Add a long-range edge between opposite corners.
	p, q := 0, 35
	ei := g.AddEdge(p, q, 2)
	lShared := d.SharedLevel(p, q)
	if lShared <= 1 {
		t.Skip("corners co-clustered too early for this test")
	}
	before := make([]int, d.Levels)
	for l := 1; l < lShared; l++ {
		before[l] = s.PairCount(l, p, q)
	}
	s.Register(ei)
	for l := 1; l < lShared; l++ {
		if got := s.PairCount(l, p, q); got != before[l]+1 {
			t.Fatalf("level %d pair count %d, want %d", l, got, before[l]+1)
		}
		if _, ok := s.ConnectingEdge(l, p, q); !ok {
			t.Fatalf("level %d: new edge not indexed", l)
		}
	}
	// At the shared level it must appear as an intra edge.
	found := false
	for _, x := range s.IntraClusterEdges(lShared, p) {
		if int(x) == ei {
			found = true
		}
	}
	if !found {
		t.Fatal("new edge missing from intra index at its shared level")
	}
}

func TestAccessors(t *testing.T) {
	g := grid(4, 4)
	d, s := build(t, g)
	if s.Decomposition() != d || s.Sparsifier() != g {
		t.Fatal("accessors broken")
	}
	if s.MemoryFootprint() <= 0 {
		t.Fatal("memory footprint should be positive")
	}
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
// gap would make a pair level built later differ from one kept current.
func TestRegisterRejectsOutOfOrder(t *testing.T) {
	g := grid(4, 4)
	_, s := build(t, g)
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
	before := s.MemoryFootprint()
	s.Register(next)
	s.Register(next + 1)
	if got := s.MemoryFootprint(); got != before+2 {
		t.Fatalf("footprint %d after two in-order registrations, want %d", got, before+2)
	}
}

func TestIndexPairsMaterializesOnce(t *testing.T) {
	g := grid(6, 6)
	d, s := build(t, g)
	if s.IndexPairs(0) || s.IndexPairs(d.Levels) {
		t.Fatal("levels without a pair index must not be built")
	}
	if s.MemoryFootprint() != g.NumEdges() {
		t.Fatalf("fresh footprint %d, want one intra entry per edge (%d)", s.MemoryFootprint(), g.NumEdges())
	}
	if !s.IndexPairs(1) || s.IndexPairs(1) {
		t.Fatal("IndexPairs(1) must build the level once")
	}
	if got, want := s.MemoryFootprint(), g.NumEdges()+s.LevelPairs(1); got != want {
		t.Fatalf("footprint %d, want intra entries plus level-1 pairs %d", got, want)
	}
	if d.Levels > 2 && !s.IndexPairs(2) {
		t.Fatal("IndexPairs(1) must not build level 2")
	}
}

// A span level is built once, counted in the footprint, dropped by an edge
// that becomes internal at or below it, and kept by an edge that crosses
// its clusters.
func TestIndexIntraMaterializesOnce(t *testing.T) {
	g := grid(6, 6)
	d, s := build(t, g)
	if d.Levels < 3 {
		t.Skip("grid hierarchy too shallow")
	}
	if s.IndexIntra(0) || s.IndexIntra(d.Levels) {
		t.Fatal("levels without a span index must not be built")
	}
	before := s.MemoryFootprint()
	if !s.IndexIntra(1) || s.IndexIntra(1) {
		t.Fatal("IndexIntra(1) must build the level once")
	}
	if got, want := s.MemoryFootprint(), before+len(s.spans[1].edges); got != want || got == before {
		t.Fatalf("footprint %d, want intra entries plus level-1 span entries %d", got, want)
	}
	// Two nodes in different level-1 clusters: the edge crosses level 1.
	p, q := -1, -1
	for u := 0; u < d.N && p < 0; u++ {
		for v := u + 1; v < d.N; v++ {
			if l := d.SharedLevel(u, v); l >= 2 {
				p, q = u, v
				break
			}
		}
	}
	if p < 0 {
		t.Skip("no node pair separated at level 1")
	}
	s.Register(g.AddEdge(p, q, 1))
	if s.IndexIntra(1) {
		t.Fatal("an edge crossing level 1 dropped its spans")
	}
	lShared := d.SharedLevel(p, q)
	s.IndexIntra(lShared)
	s.Register(g.AddEdge(p, q, 1))
	if !s.IndexIntra(lShared) {
		t.Fatal("an edge internal at the span level must drop its spans")
	}
	if s.IndexIntra(1) {
		t.Fatal("an edge internal above level 1 dropped level 1's spans")
	}
}
