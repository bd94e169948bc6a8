package core

import (
	"runtime"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
)

// updateMeshFixture returns the post-setup sparsifier of a Delaunay mesh on
// 8,192 nodes and one 10-batch local stream for it (new edges within 10
// hops, as in the stream-mesh workload), where a large share of new edges
// are redistributed over their filter-level cluster.
func updateMeshFixture(tb testing.TB) (*Sparsifier, [][]graph.Edge) {
	tb.Helper()
	g, err := gen.Delaunay(8192, 1)
	if err != nil {
		tb.Fatal(err)
	}
	init, err := grass.Sparsify(g, grass.Config{
		TargetDensity: 0.10, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	base, err := NewSparsifier(g.Clone(), init.H.Clone(), Config{
		TargetCond: 100,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	batches, err := gen.Stream(g, gen.StreamConfig{
		Kind: gen.StreamLocal, HopRadius: 10, WeightHi: 3, Count: g.NumEdges() / 10, Batches: 10, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return base, batches
}

// BenchmarkUpdateBatchMesh times the update phase alone: the stream of
// updateMeshFixture through UpdateBatch. Each iteration restores the
// post-setup state untimed, so ns/op is one full stream.
func BenchmarkUpdateBatchMesh(b *testing.B) {
	base, batches := updateMeshFixture(b)
	var redistributed int
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		s, err := RestoreSparsifier(base.PersistentState())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, batch := range batches {
			if _, err := s.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		redistributed = s.Stats().Redistributed
	}
	b.ReportMetric(float64(redistributed), "redistributed/op")
}

// TestUpdateStreamAllocations gates the update path's allocations: the
// stream of BenchmarkUpdateBatchMesh, 2,457 edges after a restore, must
// make at most 1,000 heap allocations. The first write after a restore
// copies G and H into one adjacency arena each, with headroom, so appends
// land in place; copying each node's list on its own made 21,377.
func TestUpdateStreamAllocations(t *testing.T) {
	const limit = 1000
	base, batches := updateMeshFixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for run := 0; run < 3; run++ {
		s, err := RestoreSparsifier(base.PersistentState())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, batch := range batches {
			if _, err := s.UpdateBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		n := after.Mallocs - before.Mallocs
		if n > limit {
			t.Fatalf("run %d: a %d-batch stream made %d allocations, limit %d", run, len(batches), n, limit)
		}
		t.Logf("run %d: %d allocations", run, n)
	}
}
