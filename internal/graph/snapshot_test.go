package graph

import (
	"sync"
	"testing"
)

func buildPath(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n, n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, float64(i+1))
	}
	return g
}

func TestSnapshotIsolation(t *testing.T) {
	g := buildPath(t, 5)
	snap := g.Snapshot()
	wantEdges := snap.NumEdges()
	wantWeight := snap.TotalWeight()

	// Every mutation class on the live graph must be invisible to the snapshot.
	g.AddEdge(0, 4, 10)
	g.SetWeight(0, 99)
	g.SetWeight(1, g.Edge(1).W*3)
	g.AddNode()
	g.AddEdge(5, 0, 1)

	if snap.NumEdges() != wantEdges {
		t.Fatalf("snapshot edge count changed: %d -> %d", wantEdges, snap.NumEdges())
	}
	if snap.TotalWeight() != wantWeight {
		t.Fatalf("snapshot total weight changed: %v -> %v", wantWeight, snap.TotalWeight())
	}
	if snap.NumNodes() != 5 {
		t.Fatalf("snapshot node count changed: %d", snap.NumNodes())
	}
	if w := snap.Edge(0).W; w != 1 {
		t.Fatalf("snapshot edge 0 weight changed: %v", w)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid after live mutations: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("live graph invalid after unshare: %v", err)
	}
}

func TestSnapshotMutatingSnapshotLeavesLiveIntact(t *testing.T) {
	g := buildPath(t, 4)
	snap := g.Snapshot()
	snap.AddEdge(0, 3, 7)
	snap.SetWeight(0, 42)
	if g.NumEdges() != 3 {
		t.Fatalf("live graph saw snapshot mutation: %d edges", g.NumEdges())
	}
	if g.Edge(0).W != 1 {
		t.Fatalf("live graph weight changed by snapshot: %v", g.Edge(0).W)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("live: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}

func TestSnapshotChain(t *testing.T) {
	g := buildPath(t, 3)
	s1 := g.Snapshot()
	g.AddEdge(0, 2, 5)
	s2 := g.Snapshot()
	g.SetWeight(0, 9)
	if s1.NumEdges() != 2 || s2.NumEdges() != 3 {
		t.Fatalf("chained snapshots: got %d and %d edges", s1.NumEdges(), s2.NumEdges())
	}
	if s2.Edge(0).W != 1 {
		t.Fatalf("s2 saw later weight change: %v", s2.Edge(0).W)
	}
	s3 := s2.Snapshot() // snapshot of a snapshot shares until either mutates
	if s3.NumEdges() != 3 || s3.TotalWeight() != s2.TotalWeight() {
		t.Fatalf("snapshot-of-snapshot mismatch")
	}
}

// TestSnapshotConcurrentReads exercises the COW contract under the race
// detector: readers traverse a snapshot while the live graph keeps mutating.
func TestSnapshotConcurrentReads(t *testing.T) {
	g := buildPath(t, 64)
	snap := g.Snapshot()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				var sum float64
				for u := 0; u < snap.NumNodes(); u++ {
					for _, a := range snap.Adj(u) {
						sum += snap.Edge(int(a.Edge)).W
					}
				}
				if sum <= 0 {
					t.Error("snapshot traversal saw no weight")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		g.AddEdge(i%64, (i+7)%64, 1)
		g.SetWeight(i%g.NumEdges(), g.Edge(i%g.NumEdges()).W*1.001)
	}
	wg.Wait()
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}
