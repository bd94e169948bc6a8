package gen

import (
	"testing"
	"testing/quick"

	"ingrass/internal/graph"
)

// Property: streams never contain self-loops, duplicates, or pairs already
// adjacent in the host graph, across families and seeds.
func TestStreamFreshnessProperty(t *testing.T) {
	f := func(seed uint64, local bool) bool {
		g, err := PowerGrid(12, 12, 0.05, seed)
		if err != nil {
			return false
		}
		kind := StreamUniform
		if local {
			kind = StreamLocal
		}
		batches, err := Stream(g, StreamConfig{Kind: kind, Count: 40, Batches: 4, Seed: seed})
		if err != nil {
			return false
		}
		seen := map[uint64]bool{}
		total := 0
		for _, b := range batches {
			for _, e := range b {
				total++
				if e.U == e.V || e.W <= 0 {
					return false
				}
				if g.HasEdge(e.U, e.V) {
					return false
				}
				k := graph.KeyOf(e.U, e.V)
				if seen[k] {
					return false
				}
				seen[k] = true
			}
		}
		return total == 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch partitioning covers the whole stream with balanced batch
// sizes (within one of each other, except a possibly short tail).
func TestStreamBatchBalanceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := TriMesh(10, 10, 1, seed)
		if err != nil {
			return false
		}
		for _, batches := range []int{1, 3, 7, 10} {
			bs, err := Stream(g, StreamConfig{Count: 50, Batches: batches, Seed: seed})
			if err != nil {
				return false
			}
			if len(bs) != batches {
				return false
			}
			total := 0
			for _, b := range bs {
				total += len(b)
			}
			if total != 50 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: all registry generators produce connected graphs with positive
// weights at small scales, deterministically in the seed.
func TestRegistryDeterminismProperty(t *testing.T) {
	f := func(seedRaw uint64) bool {
		seed := seedRaw%100 + 1
		for _, name := range []string{"g2_circuit", "fe_4elt2", "delaunay_n14"} {
			tc, err := Lookup(name)
			if err != nil {
				return false
			}
			a, err := tc.Build(0.01, seed)
			if err != nil {
				return false
			}
			b, err := tc.Build(0.01, seed)
			if err != nil {
				return false
			}
			if a.NumEdges() != b.NumEdges() || a.NumNodes() != b.NumNodes() {
				return false
			}
			for i := range a.All() {
				if a.Edge(i) != b.Edge(i) {
					return false
				}
			}
			if !graph.IsConnected(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// Property: Delaunay triangulations of any seed satisfy Euler-consistent
// edge bounds for planar graphs and span all points.
func TestDelaunayPlanarityProperty(t *testing.T) {
	f := func(seedRaw uint64) bool {
		n := 50 + int(seedRaw%200)
		g, err := Delaunay(n, seedRaw)
		if err != nil {
			return false
		}
		if g.NumNodes() != n {
			return false
		}
		if g.NumEdges() > 3*n-6 {
			return false
		}
		return graph.IsConnected(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
