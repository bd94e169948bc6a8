package core

import (
	"math"
	"testing"
	"testing/quick"

	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/vecmath"
)

// buildRandomSystem creates (G, Sparsifier) over a random connected graph.
func buildRandomSystem(seed uint64, n, extra int, target float64) (*graph.Graph, *Sparsifier, error) {
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
	init, err := grass.InitialSparsifier(g, 0.12, seed)
	if err != nil {
		return nil, nil, err
	}
	s, err := NewSparsifier(g, init.H, Config{
		TargetCond: target,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: seed ^ 0x1}},
	})
	return g, s, err
}

// randomBatch draws fresh (non-adjacent) edges for g.
func randomBatch(g *graph.Graph, count int, seed uint64) []graph.Edge {
	r := vecmath.NewRNG(seed)
	var out []graph.Edge
	tries := 0
	for len(out) < count && tries < 100*count {
		tries++
		u, v := r.Intn(g.NumNodes()), r.Intn(g.NumNodes())
		if u == v || g.HasEdge(u, v) {
			continue
		}
		out = append(out, graph.Edge{U: u, V: v, W: r.Range(0.5, 2)})
	}
	return out
}

// Property: weight conservation — after any update batch, H's total weight
// equals its old total plus the batch's total (every action conserves the
// new conductance, whether included, merged, or redistributed).
func TestWeightConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, s, err := buildRandomSystem(seed, 40, 80, 60)
		if err != nil {
			return false
		}
		batch := randomBatch(g, 15, seed^0x2)
		var batchW float64
		for _, e := range batch {
			batchW += e.W
		}
		before := s.H.TotalWeight()
		decs, err := s.UpdateBatch(batch)
		if err != nil || len(decs) != len(batch) {
			return false
		}
		after := s.H.TotalWeight()
		return math.Abs(after-(before+batchW)) <= 1e-6*(1+after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: G always receives every batch edge; H only grows by the
// included count; the sketch stays consistent (each included edge is
// findable as a connecting edge afterwards).
func TestUpdateAccountingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, s, err := buildRandomSystem(seed, 35, 60, 40)
		if err != nil {
			return false
		}
		gEdges := g.NumEdges()
		hEdges := s.H.NumEdges()
		batch := randomBatch(g, 12, seed^0x3)
		decs, err := s.UpdateBatch(batch)
		if err != nil {
			return false
		}
		included := 0
		for _, d := range decs {
			if d.Action == Included {
				included++
				// The included edge must now connect its clusters.
				if len(s.sk.PairEdges(d.Edge.U, d.Edge.V)) == 0 &&
					!s.sk.SameCluster(d.Edge.U, d.Edge.V) {
					return false
				}
			}
		}
		return g.NumEdges() == gEdges+len(batch) && s.H.NumEdges() == hEdges+included
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: idempotent redundancy — submitting the same edge twice never
// includes it twice (the second copy must merge or redistribute).
func TestRepeatEdgeNeverIncludedTwiceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, s, err := buildRandomSystem(seed, 30, 50, 50)
		if err != nil {
			return false
		}
		batch := randomBatch(g, 5, seed^0x4)
		if len(batch) == 0 {
			return true
		}
		if _, err := s.UpdateBatch(batch); err != nil {
			return false
		}
		// Resubmit identical endpoints (now parallel edges in G).
		decs, err := s.UpdateBatch(batch)
		if err != nil {
			return false
		}
		for _, d := range decs {
			if d.Action == Included {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: H remains connected through arbitrary update streams whenever
// H(0) was connected.
func TestConnectivityPreservedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, s, err := buildRandomSystem(seed, 30, 40, 30)
		if err != nil {
			return false
		}
		if !graph.IsConnected(s.H) {
			return true // skip rare disconnected H(0)
		}
		for round := 0; round < 3; round++ {
			batch := randomBatch(g, 8, seed^uint64(round+5))
			if _, err := s.UpdateBatch(batch); err != nil {
				return false
			}
		}
		return graph.IsConnected(s.H)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: deeper target condition numbers never choose a shallower
// filter level (monotonicity of FilterLevel in C).
func TestFilterLevelMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		_, s, err := buildRandomSystem(seed, 40, 60, 10)
		if err != nil {
			return false
		}
		d := s.Decomposition()
		prev := 0
		for _, c := range []float64{4, 16, 64, 256, 1024} {
			l := d.FilterLevel(c)
			if l < prev {
				return false
			}
			prev = l
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
