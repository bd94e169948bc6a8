package core

import (
	"context"
	"testing"

	"ingrass/internal/cond"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/vecmath"
)

func deletionSetup(t *testing.T) (*graph.Graph, *Sparsifier) {
	t.Helper()
	g := grid(10, 10)
	init, err := grass.InitialSparsifier(g, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparsifier(g, init.H, Config{
		TargetCond: 50,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

func TestDeleteValidation(t *testing.T) {
	_, s := deletionSetup(t)
	if _, err := s.DeleteEdges([]graph.Edge{{U: 0, V: 55}}); err == nil {
		t.Fatal("deleting a non-edge must error")
	}
	// Valid delete, then double-delete errors.
	if _, err := s.DeleteEdges([]graph.Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteEdges([]graph.Edge{{U: 0, V: 1}}); err == nil {
		t.Fatal("double deletion must error")
	}
}

func TestDeleteNonSparsifierEdge(t *testing.T) {
	g, s := deletionSetup(t)
	// Find a G edge absent from H.
	var target graph.Edge
	found := false
	for _, e := range g.All() {
		if _, ok := s.H.FindEdge(e.U, e.V); !ok {
			target = e
			found = true
			break
		}
	}
	if !found {
		t.Skip("H contains every G edge at this density")
	}
	hEdges := s.H.NumEdges()
	res, err := s.DeleteEdges([]graph.Edge{target})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].InSparsifier {
		t.Fatal("edge was not in H")
	}
	if res[0].Replacement != -1 {
		t.Fatal("no replacement expected")
	}
	if s.H.NumEdges() != hEdges {
		t.Fatal("H must be untouched")
	}
	// G weight tombstoned.
	gi, _ := g.FindEdge(target.U, target.V)
	if g.Edge(gi).W > s.tombstoneWeight()*10 {
		t.Fatal("G edge not tombstoned")
	}
}

func TestDeleteBridgePromotesReplacement(t *testing.T) {
	// Build a sparsifier that is exactly a spanning tree: every edge is a
	// bridge, so deleting any in-H edge must promote a replacement.
	g := grid(8, 8)
	init, err := grass.Sparsify(g, grass.Config{TargetDensity: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparsifier(g, init.H, Config{
		TargetCond: 50,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Delete a tree edge that exists in G (all H edges are G edges here).
	he := s.H.Edge(0)
	res, err := s.DeleteEdges([]graph.Edge{{U: he.U, V: he.V}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].InSparsifier {
		t.Fatal("tree edge must be in H")
	}
	if res[0].Replacement < 0 {
		t.Fatal("bridge deletion must promote a replacement")
	}
	// H must remain spectrally connected: all nodes reachable through live
	// edges.
	reach := s.liveReachable(0)
	for v, ok := range reach {
		if !ok {
			t.Fatalf("node %d disconnected after replacement", v)
		}
	}
	if s.Stats().Promoted != 1 || s.Stats().Deleted != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestDeleteKeepsKappaFinite(t *testing.T) {
	g, s := deletionSetup(t)
	// Delete a handful of random existing edges.
	r := vecmath.NewRNG(5)
	deleted := 0
	for deleted < 8 {
		e := g.Edge(r.Intn(g.NumEdges()))
		if e.W <= s.tombstoneWeight()*10 {
			continue
		}
		if _, err := s.DeleteEdges([]graph.Edge{{U: e.U, V: e.V}}); err != nil {
			continue // already deleted via another index
		}
		deleted++
	}
	res, err := cond.Estimate(context.Background(), s.G, s.H, cond.Options{Seed: 6, MaxIters: 60, LambdaMaxOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kappa <= 0 || res.Kappa > 1e4 {
		t.Fatalf("kappa exploded after deletions: %v", res.Kappa)
	}
}

func TestCompactDeleted(t *testing.T) {
	g, s := deletionSetup(t)
	gEdges := g.NumEdges()
	hEdges := s.H.NumEdges()
	// Delete two known edges, one definitely in H (take H's first edge).
	he := s.H.Edge(0)
	if _, err := s.DeleteEdges([]graph.Edge{{U: he.U, V: he.V}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactDeleted(); err != nil {
		t.Fatal(err)
	}
	if s.G.NumEdges() >= gEdges {
		t.Fatalf("compaction did not shrink G: %d >= %d", s.G.NumEdges(), gEdges)
	}
	// H lost the deleted edge but may have gained a replacement.
	if s.H.NumEdges() > hEdges {
		t.Fatalf("H grew beyond replacement bound: %d > %d", s.H.NumEdges(), hEdges)
	}
	// Counters survive, and updates still work after compaction.
	if s.Stats().Deleted != 1 {
		t.Fatalf("stats lost: %+v", s.Stats())
	}
	if _, err := s.UpdateBatch([]graph.Edge{{U: 0, V: s.G.NumNodes() - 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllOrNothing(t *testing.T) {
	g, s := deletionSetup(t)
	e0 := g.Edge(0)
	before := g.Edge(0).W
	// Batch with one valid and one invalid entry: nothing changes.
	_, err := s.DeleteEdges([]graph.Edge{
		{U: e0.U, V: e0.V},
		{U: 0, V: 55}, // not an edge
	})
	if err == nil {
		t.Fatal("expected validation error")
	}
	if g.Edge(0).W != before {
		t.Fatal("failed batch must not mutate")
	}
}
