package core

import (
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
)

// BenchmarkUpdateBatchMesh times the update phase alone: one 10-batch local
// stream (new edges within 10 hops, as in the stream-mesh workload) through
// UpdateBatch on a Delaunay mesh, where a large share of new edges are
// redistributed over their filter-level cluster. Each iteration restores
// the post-setup state untimed, so ns/op is one full stream.
func BenchmarkUpdateBatchMesh(b *testing.B) {
	g, err := gen.Delaunay(8192, 1)
	if err != nil {
		b.Fatal(err)
	}
	init, err := grass.Sparsify(g, grass.Config{
		TargetDensity: 0.10, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	base, err := NewSparsifier(g.Clone(), init.H.Clone(), Config{
		TargetCond: 100,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	batches, err := gen.Stream(g, gen.StreamConfig{
		Kind: gen.StreamLocal, HopRadius: 10, WeightHi: 3, Count: g.NumEdges() / 10, Batches: 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
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
