package sketch

import (
	"slices"
	"testing"
	"testing/quick"

	"ingrass/internal/graph"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/vecmath"
)

func randomConnected(seed uint64, n, extra int) *graph.Graph {
	r := vecmath.NewRNG(seed)
	g := graph.New(n, n+extra)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)], r.Range(0.1, 10))
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, r.Range(0.1, 10))
		}
	}
	return g
}

// Property: on any random connected graph, every sparsifier edge is indexed
// exactly once — either as an intra edge at its shared level or as a
// pair edge at every level below it.
func TestEveryEdgeIndexedOnceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 30, 45)
		d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		s, err := New(d, g)
		if err != nil {
			return false
		}
		// Collect intra memberships over all levels and clusters: each edge
		// must appear exactly once (at its shared level).
		counts := make([]int, g.NumEdges())
		for l := 1; l < d.Levels; l++ {
			for v := 0; v < d.N; v++ {
				// Visit each cluster once via its first member.
				if isFirstMember(d, l, v) {
					for _, ei := range s.intra[l][d.ClusterID(l, v)] {
						counts[ei]++
					}
				}
			}
		}
		for ei, e := range g.All() {
			sharedLvl := d.SharedLevel(e.U, e.V)
			if sharedLvl <= 0 {
				// Cross-component edges impossible on a connected graph.
				return false
			}
			if counts[ei] != 1 {
				return false
			}
			// Below the shared level the pair index must know the edge.
			for l := 1; l < sharedLvl; l++ {
				if s.PairCount(l, e.U, e.V) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// isFirstMember reports whether v is the lowest-id node of its cluster at
// level l (used to visit each cluster exactly once).
func isFirstMember(d *lrd.Decomposition, l, v int) bool {
	c := d.ClusterID(l, v)
	for u := 0; u < v; u++ {
		if d.ClusterID(l, u) == c {
			return false
		}
	}
	return true
}

// Property: registering an edge then querying ConnectingEdge at any level
// below its shared level returns a valid edge of the same cluster pair.
func TestRegisterQueryRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 25, 30)
		d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		s, err := New(d, g)
		if err != nil {
			return false
		}
		r := vecmath.NewRNG(seed ^ 0x8)
		for k := 0; k < 10; k++ {
			u, v := r.Intn(25), r.Intn(25)
			if u == v {
				continue
			}
			ei := g.AddEdge(u, v, r.Range(0.5, 2))
			s.Register(ei)
			shared := d.SharedLevel(u, v)
			for l := 1; l < shared; l++ {
				rep, ok := s.ConnectingEdge(l, u, v)
				if !ok {
					return false
				}
				re := g.Edge(rep)
				if pairKey(d.ClusterID(l, re.U), d.ClusterID(l, re.V)) !=
					pairKey(d.ClusterID(l, u), d.ClusterID(l, v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: materializing a pair level late gives, element for element, the
// index that keeping it current from the start gives. Three structures see
// the same registration stream: one with every level built before it, one
// with every level built after it, and one with level 1 and a random half of
// the others built midway, between an edge's append and its registration. Every level must hold the same edge lists, in the same order,
// for every cluster pair, and every cluster the same intra edges.
func TestLazyPairLevelsEqualEagerProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 40, 50)
		d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		var eager, lazy, mid *Structure
		for _, s := range []**Structure{&eager, &lazy, &mid} {
			if *s, err = New(d, g); err != nil {
				return false
			}
		}
		for l := 1; l < d.Levels; l++ {
			eager.IndexPairs(l)
		}
		r := vecmath.NewRNG(seed ^ 0x5)
		const stream = 60
		for k := 0; k < stream; k++ {
			u, v := r.Intn(40), r.Intn(40)
			if u == v {
				v = (u + 1) % 40
			}
			ei := g.AddEdge(u, v, r.Range(0.5, 2))
			if k == stream/2 {
				// Between AddEdge and Register: the build must skip ei.
				for l := 1; l < d.Levels; l++ {
					if l == 1 || r.Intn(2) == 0 {
						mid.IndexPairs(l)
					}
				}
			}
			for _, s := range []*Structure{eager, lazy, mid} {
				s.Register(ei)
			}
		}
		for _, s := range []*Structure{lazy, mid} {
			for l := 1; l < d.Levels; l++ {
				if s.LevelPairs(l) != eager.LevelPairs(l) {
					return false
				}
				for k, info := range eager.pairs[l] {
					if !slices.Equal(s.pairs[l][k].Edges, info.Edges) {
						return false
					}
				}
				for v := 0; v < d.N; v++ {
					if !slices.Equal(s.IntraClusterEdges(l, v), eager.IntraClusterEdges(l, v)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// descent is the reference for a cluster's intra span, independent of the
// index build: cluster c's own intra edges at level l, then each child's
// subtree in containment-tree order.
func descent(s *Structure, l int, c int32) []int32 {
	out := append([]int32(nil), s.intra[l][c]...)
	if l >= 2 {
		for _, child := range s.children[l][c] {
			out = append(out, descent(s, l-1, child)...)
		}
	}
	return out
}

// Property: whatever the order in which levels are materialized and edges
// registered, every materialized span index holds, for every cluster, the
// recursive descent element for element. The stream mixes random edges with
// edges inside an existing level-1 cluster, so registrations land below
// levels already built (the delete-path promotion and swap catch-up case)
// and must drop those levels' spans.
func TestIntraSpansEqualDescentProperty(t *testing.T) {
	stale := 0
	f := func(seed uint64) bool {
		const n = 40
		g := randomConnected(seed, n, 50)
		d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		s, err := New(d, g)
		if err != nil {
			return false
		}
		r := vecmath.NewRNG(seed ^ 0x11)
		check := func() bool {
			for l := 1; l < d.Levels; l++ {
				if s.spans[l].off == nil && r.Intn(2) == 0 {
					continue // leave this level lazy for now
				}
				s.IndexIntra(l)
				sp := s.spans[l]
				if len(sp.off) != d.NumClusters[l]+1 {
					return false
				}
				for c := range d.NumClusters[l] {
					if !slices.Equal(sp.edges[sp.off[c]:sp.off[c+1]], descent(s, l, int32(c))) {
						return false
					}
				}
			}
			return true
		}
		for k := 0; k < 60; k++ {
			u := r.Intn(n)
			v := r.Intn(n)
			if k%2 == 0 {
				// A partner inside u's level-1 cluster, when it has one.
				for w := 0; w < n; w++ {
					if w != u && d.ClusterID(1, w) == d.ClusterID(1, u) {
						v = w
						break
					}
				}
			}
			if u == v {
				v = (u + 1) % n
			}
			ei := g.AddEdge(u, v, r.Range(0.5, 2))
			if k == 30 {
				// Between AddEdge and Register: the build must skip ei.
				s.IndexIntra(1 + r.Intn(d.Levels-1))
			}
			shared := d.SharedLevel(u, v)
			for l := shared; l > 0 && l < d.Levels; l++ {
				if s.spans[l].off != nil {
					stale++
					break
				}
			}
			s.Register(ei)
			if !check() {
				return false
			}
		}
		for l := 1; l < d.Levels; l++ {
			for v := 0; v < n; v++ {
				if !slices.Equal(s.IntraClusterEdges(l, v), descent(s, l, d.ClusterID(l, v))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if stale == 0 {
		t.Fatal("no registration landed at or below a materialized span level; the stream exercises no invalidation")
	}
}
