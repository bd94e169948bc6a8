package wal

import (
	"testing"

	"ingrass/internal/graph"
)

func TestApplyToAddsThenDeletes(t *testing.T) {
	sp := testSparsifier(t, 8, 8)
	n := sp.G.NumNodes()
	adds := []graph.Edge{
		{U: 0, V: n - 1, W: 2},
		{U: 1, V: n - 2, W: 1.5},
	}
	dels := []graph.Edge{
		{U: 0, V: 1}, // a grid edge present in G from the start
	}
	before := sp.Stats()
	if err := rec(1, adds, dels).ApplyTo(sp); err != nil {
		t.Fatal(err)
	}
	after := sp.Stats()
	if after.Processed != before.Processed+len(adds) {
		t.Fatalf("processed %d -> %d", before.Processed, after.Processed)
	}
	if after.Deleted != before.Deleted+len(dels) {
		t.Fatalf("deleted %d -> %d", before.Deleted, after.Deleted)
	}
}

// TestApplyToDeleteOfSameRecordAdd: adds apply before deletions, so one
// record may insert an edge and delete it again.
func TestApplyToDeleteOfSameRecordAdd(t *testing.T) {
	sp := testSparsifier(t, 6, 6)
	n := sp.G.NumNodes()
	e := graph.Edge{U: 0, V: n - 1, W: 3}
	before := sp.Stats()
	if err := rec(1, []graph.Edge{e}, []graph.Edge{{U: e.U, V: e.V}}).ApplyTo(sp); err != nil {
		t.Fatal(err)
	}
	if after := sp.Stats(); after.Processed != before.Processed+1 || after.Deleted != before.Deleted+1 {
		t.Fatalf("stats %+v -> %+v, want one add and one delete", before, after)
	}
}

func TestApplyToInvalidAddLeavesStateUntouched(t *testing.T) {
	sp := testSparsifier(t, 6, 6)
	edges, weight := sp.G.NumEdges(), sp.G.TotalWeight()
	if err := rec(1, []graph.Edge{{U: 0, V: 0, W: 1}}).ApplyTo(sp); err == nil {
		t.Fatal("want error for self-loop")
	}
	if sp.G.NumEdges() != edges || sp.G.TotalWeight() != weight {
		t.Fatal("failed record mutated G")
	}
}

func TestApplyToEmpty(t *testing.T) {
	sp := testSparsifier(t, 4, 4)
	before := sp.Stats()
	if err := rec(1, nil).ApplyTo(sp); err != nil {
		t.Fatal(err)
	}
	if after := sp.Stats(); after != before {
		t.Fatalf("empty record changed stats %+v -> %+v", before, after)
	}
}
