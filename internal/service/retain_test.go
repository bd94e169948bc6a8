package service

import (
	"bytes"
	"context"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/wal"
)

// retained is one generation's published graphs, taken the way the
// public SparsifierAt and OriginalSnapshot take them, with the bytes they
// encoded to when taken.
type retained struct {
	gen    uint64
	h, g   *graph.Graph
	hb, gb []byte
}

func encode(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// take captures generation gen of e.
func take(t *testing.T, e *Engine, gen uint64) retained {
	t.Helper()
	snap, ok := e.At(gen)
	if !ok {
		t.Fatalf("generation %d not retained", gen)
	}
	r := retained{gen: gen, h: snap.ExportSparsifier().Snapshot(), g: snap.G.Snapshot()}
	r.hb, r.gb = encode(t, r.h), encode(t, r.g)
	return r
}

// checkFrozen fails unless every taken generation still encodes to the
// bytes it had when taken.
func checkFrozen(t *testing.T, who string, taken []retained) {
	t.Helper()
	for _, r := range taken {
		if !bytes.Equal(encode(t, r.h), r.hb) || !bytes.Equal(encode(t, r.g), r.gb) {
			t.Fatalf("%s: generation %d changed after it was published", who, r.gen)
		}
	}
}

// TestRetainedGenerationsStayFrozen drives more than twice Retain one-edge
// writes (inclusions, merges, redistributions and a delete) through a
// primary engine and, record by record, through a replica. Every retained
// generation's sparsifier and original graph, taken along the way, must
// keep the bytes it had when it was published, though each later write
// copies only the pages it touches and shares the rest with it; and the
// replica must publish the same bytes as the primary.
func TestRetainedGenerationsStayFrozen(t *testing.T) {
	const rows, cols = 30, 30 // several node and edge pages
	ctx := context.Background()
	e := newEngine(t, rows, cols, Options{})
	f, err := NewReplica(wal.Checkpoint{Gen: 0, State: newSparsifier(t, rows, cols).PersistentState()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	id := func(i, j int) int { return i*cols + j }
	var writes []graph.Edge
	for k := 0; len(writes) < 6*e.opts.Retain; k++ {
		i, j := (7*k)%rows, (11*k)%cols
		writes = append(writes,
			graph.Edge{U: id(i, j), V: id((i+rows/2)%rows, (j+cols/2)%cols), W: 1.5}, // far apart
			graph.Edge{U: id(i, j), V: id(i, (j+2)%cols), W: 0.5},                    // two hops
			graph.Edge{U: id(i, j), V: id((i+1)%rows, (j+1)%cols), W: 2},             // a cell's diagonal
		)
	}
	primary := []retained{take(t, e, 0)}
	replica := []retained{take(t, f, 0)}
	var total WriteResult
	apply := func(rec wal.BatchRecord, res WriteResult) {
		t.Helper()
		if err := f.ApplyRecord(rec); err != nil {
			t.Fatal(err)
		}
		p, r := take(t, e, res.Generation), take(t, f, res.Generation)
		if !bytes.Equal(p.hb, r.hb) || !bytes.Equal(p.gb, r.gb) {
			t.Fatalf("generation %d: replica differs from primary", res.Generation)
		}
		primary, replica = append(primary, p), append(replica, r)
		checkFrozen(t, "primary", primary)
		checkFrozen(t, "replica", replica)
		total.Included += res.Included
		total.Merged += res.Merged
		total.Redistributed += res.Redistributed
		total.Deleted += res.Deleted
	}
	for _, w := range writes {
		res, err := e.Add(ctx, []graph.Edge{w})
		if err != nil {
			t.Fatal(err)
		}
		apply(wal.BatchRecord{Gen: res.Generation, Adds: []graph.Edge{w}}, res)
	}
	del := []graph.Edge{writes[0]}
	res, err := e.Delete(ctx, del)
	if err != nil {
		t.Fatal(err)
	}
	apply(wal.BatchRecord{Gen: res.Generation, DelBatches: [][]graph.Edge{del}}, res)

	if total.Included == 0 || total.Merged == 0 || total.Redistributed == 0 || total.Deleted != 1 {
		t.Fatalf("writes covered %+v; want every kind of decision", total)
	}
	if n := len(primary); n < 2*e.opts.Retain {
		t.Fatalf("only %d generations taken", n)
	}
	t.Logf("%d generations, decisions %+v", len(primary), total)
}
