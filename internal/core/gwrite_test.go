package core

import (
	"math"
	"slices"
	"testing"

	"ingrass/internal/graph"
)

// graphsIdentical fails unless a and b hold the same edges with the same
// weight bits, the same adjacency lists and the same TotalWeight bits.
func graphsIdentical(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	graphsBitEqual(t, name, a, b)
	if x, y := a.TotalWeight(), b.TotalWeight(); math.Float64bits(x) != math.Float64bits(y) {
		t.Fatalf("%s: total weight %v vs %v", name, x, y)
	}
	for u := range a.NumNodes() {
		if !slices.Equal(a.Adj(u), b.Adj(u)) {
			t.Fatalf("%s: node %d lists %v vs %v", name, u, a.Adj(u), b.Adj(u))
		}
	}
}

// TestStreamGMatchesAddEdgeLoop: after a 10-batch local stream on a restored
// sparsifier, whose G shares its pages with the captured state, G equals
// the captured G grown by one AddEdge per decision in decision order, bit
// for bit, and the captured G is unchanged.
func TestStreamGMatchesAddEdgeLoop(t *testing.T) {
	base, batches := updateMeshFixture(t)
	st := base.PersistentState()
	before := st.G.Clone()
	s, err := RestoreSparsifier(st)
	if err != nil {
		t.Fatal(err)
	}
	want := st.G.Snapshot()
	for _, batch := range batches {
		decs, err := s.UpdateBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decs {
			want.AddEdge(d.Edge.U, d.Edge.V, d.Edge.W)
		}
	}
	if s.Stats().Redistributed == 0 || s.Stats().Merged == 0 || s.Stats().Included == 0 {
		t.Fatalf("stream exercised too few actions: %+v", s.Stats())
	}
	graphsIdentical(t, "G", s.G, want)
	graphsIdentical(t, "captured G", base.G, before)
}
