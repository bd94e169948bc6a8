package wal

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"

	"ingrass/internal/core"
)

func grid(r, c int) *graph.Graph {
	g := graph.New(r*c, 2*r*c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), 1)
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return g
}

func testSparsifier(t *testing.T, rows, cols int) *core.Sparsifier {
	t.Helper()
	g := grid(rows, cols)
	init, err := grass.InitialSparsifier(g, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.NewSparsifier(g, init.H, core.Config{
		TargetCond: 50,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func rec(gen uint64, adds []graph.Edge, dels ...[]graph.Edge) BatchRecord {
	return BatchRecord{Gen: gen, Adds: adds, DelBatches: dels}
}

func TestRecordRoundTrip(t *testing.T) {
	in := rec(42,
		[]graph.Edge{{U: 0, V: 5, W: 1.5}, {U: 3, V: 9, W: 0.1}},
		[]graph.Edge{{U: 1, V: 2}},
		[]graph.Edge{{U: 7, V: 8}, {U: 2, V: 4}},
	)
	out, err := decodeRecord(in.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Gen != in.Gen || len(out.Adds) != 2 || len(out.DelBatches) != 2 {
		t.Fatalf("round trip mangled shape: %+v", out)
	}
	for i := range in.Adds {
		if out.Adds[i].U != in.Adds[i].U || out.Adds[i].V != in.Adds[i].V ||
			math.Float64bits(out.Adds[i].W) != math.Float64bits(in.Adds[i].W) {
			t.Fatalf("add %d: %+v vs %+v", i, out.Adds[i], in.Adds[i])
		}
	}
	if out.DelBatches[1][1] != (graph.Edge{U: 2, V: 4}) {
		t.Fatalf("delete batch mangled: %+v", out.DelBatches)
	}
	// Empty record encodes and decodes too.
	empty, err := decodeRecord(rec(1, nil).encode(nil))
	if err != nil || empty.Gen != 1 || empty.Adds != nil || empty.DelBatches != nil {
		t.Fatalf("empty record: %+v, %v", empty, err)
	}
}

func TestAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := []BatchRecord{
		rec(1, []graph.Edge{{U: 0, V: 1, W: 1}}),
		rec(2, nil, []graph.Edge{{U: 0, V: 1}}),
		rec(3, []graph.Edge{{U: 2, V: 3, W: 0.5}, {U: 4, V: 5, W: 2}}),
	}
	for _, r := range want {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if st.LastGen() != 3 {
		t.Fatalf("LastGen %d", st.LastGen())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var got []BatchRecord
	if err := st2.Replay(0, func(r BatchRecord) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Gen != want[i].Gen || len(got[i].Adds) != len(want[i].Adds) ||
			len(got[i].DelBatches) != len(want[i].DelBatches) {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Filtered replay skips covered generations.
	var tail []uint64
	if err := st2.Replay(2, func(r BatchRecord) error { tail = append(tail, r.Gen); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0] != 3 {
		t.Fatalf("Replay(2) saw %v", tail)
	}
	// Appends continue after the last recovered generation.
	if _, err := st2.Append(rec(4, []graph.Edge{{U: 1, V: 2, W: 1}})); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation every couple of records.
	st, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 10; gen++ {
		if _, err := st.Append(rec(gen, []graph.Edge{{U: int(gen), V: 0, W: 1}})); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segmentPrefix+"*"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	// Replay still sees all ten records, in order, across segments.
	var gens []uint64
	if err := st.Replay(0, func(r BatchRecord) error { gens = append(gens, r.Gen); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		if g != uint64(i+1) {
			t.Fatalf("replay order broken: %v", gens)
		}
	}
	if len(gens) != 10 {
		t.Fatalf("replayed %d records", len(gens))
	}
	st.Close()
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 3; gen++ {
		if _, err := st.Append(rec(gen, []graph.Edge{{U: int(gen), V: 0, W: 1}})); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	seg := segmentPath(dir, 1)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("partial frame", func(t *testing.T) {
		d2 := t.TempDir()
		// Copy with the last record cut mid-payload.
		if err := os.WriteFile(segmentPath(d2, 1), full[:len(full)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(d2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		var gens []uint64
		if err := st2.Replay(0, func(r BatchRecord) error { gens = append(gens, r.Gen); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(gens) != 2 || gens[1] != 2 {
			t.Fatalf("want records 1,2 after torn-tail truncation, got %v", gens)
		}
		// The truncated store accepts new appends at the right offset.
		if _, err := st2.Append(rec(3, []graph.Edge{{U: 9, V: 0, W: 1}})); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("corrupted tail payload", func(t *testing.T) {
		d2 := t.TempDir()
		mangled := append([]byte(nil), full...)
		mangled[len(mangled)-1] ^= 0xFF // CRC of final record now fails
		if err := os.WriteFile(segmentPath(d2, 1), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(d2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		count := 0
		if err := st2.Replay(0, func(BatchRecord) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
		if count != 2 {
			t.Fatalf("want 2 surviving records, got %d", count)
		}
	})

	t.Run("mid-segment corruption in the last segment is fatal", func(t *testing.T) {
		// Damage the FIRST record but leave valid records after it: a torn
		// write can only be the final frame, so this must be ErrCorrupt —
		// truncating here would silently drop acknowledged records 2 and 3.
		d2 := t.TempDir()
		mangled := append([]byte(nil), full...)
		mangled[frameHeaderSize+2] ^= 0xFF
		if err := os.WriteFile(segmentPath(d2, 1), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(d2, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("want corruption error, got %v", err)
		}
	})

	t.Run("mid-file corruption is fatal", func(t *testing.T) {
		d2 := t.TempDir()
		mangled := append([]byte(nil), full...)
		mangled[frameHeaderSize+2] ^= 0xFF // damage the FIRST record's payload
		if err := os.WriteFile(segmentPath(d2, 1), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		// A valid second segment after the damaged one means the damage is
		// not a torn tail.
		stTmp, err := Open(t.TempDir(), Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		stTmp.Append(rec(4, []graph.Edge{{U: 1, V: 0, W: 1}}))
		stTmp.Close()
		data, _ := os.ReadFile(segmentPath(stTmp.Dir(), 1))
		if err := os.WriteFile(segmentPath(d2, 2), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(d2, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("want corruption error, got %v", err)
		}
	})
}

func TestCheckpointRoundTripAndPruning(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sp := testSparsifier(t, 6, 6)
	adds := []graph.Edge{{U: 0, V: 20, W: 1.5}, {U: 3, V: 17, W: 0.7}}
	if _, err := sp.UpdateBatch(adds); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 5; gen++ {
		if _, err := st.Append(rec(gen, []graph.Edge{{U: int(gen), V: 0, W: 1}})); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := st.LoadCheckpoint(); err != ErrNoCheckpoint {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
	if err := st.WriteCheckpoint(Checkpoint{Gen: 5, State: sp.PersistentState()}); err != nil {
		t.Fatal(err)
	}
	// Covered segments are gone; later appends land in a fresh segment.
	if _, err := st.Append(rec(6, []graph.Edge{{U: 6, V: 0, W: 1}})); err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	ckGen, ok := st.CheckpointGen()
	if !ok || ckGen != 5 {
		t.Fatalf("checkpoint gen %d, %v", ckGen, ok)
	}
	if err := st.Replay(ckGen, func(r BatchRecord) error { gens = append(gens, r.Gen); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != 6 {
		t.Fatalf("post-checkpoint replay saw %v", gens)
	}

	ck, err := st.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Gen != 5 {
		t.Fatalf("loaded checkpoint gen %d", ck.Gen)
	}
	restored, err := core.RestoreSparsifier(ck.State)
	if err != nil {
		t.Fatal(err)
	}
	if restored.G.NumEdges() != sp.G.NumEdges() || restored.H.NumEdges() != sp.H.NumEdges() {
		t.Fatalf("restored sizes %v/%v vs %v/%v",
			restored.G.NumEdges(), restored.H.NumEdges(), sp.G.NumEdges(), sp.H.NumEdges())
	}
	if restored.Stats() != sp.Stats() {
		t.Fatalf("restored stats %+v vs %+v", restored.Stats(), sp.Stats())
	}
	for i := range sp.G.All() {
		a, b := restored.G.Edge(i), sp.G.Edge(i)
		if a.U != b.U || a.V != b.V || math.Float64bits(a.W) != math.Float64bits(b.W) {
			t.Fatalf("G edge %d: %+v vs %+v", i, a, b)
		}
	}

	// A corrupted checkpoint is detected, not silently half-loaded.
	path := checkpointPath(dir, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadCheckpoint(); err == nil {
		t.Fatal("want error loading corrupted checkpoint")
	}
}

func TestOpenRemovesStrayCheckpointTmp(t *testing.T) {
	dir := t.TempDir()
	stray := checkpointPath(dir, 7) + ".tmp"
	if err := os.WriteFile(stray, []byte("half-written state"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray tmp checkpoint not cleaned up: %v", err)
	}
	// The stray tmp must not count as a checkpoint.
	if _, ok := st.CheckpointGen(); ok {
		t.Fatal("tmp file was treated as a checkpoint")
	}
}

func TestSyncIntervalFlusher(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 3; gen++ {
		if _, err := st.Append(rec(gen, []graph.Edge{{U: int(gen), V: 0, W: 1}})); err != nil {
			t.Fatal(err)
		}
	}
	// Wait a few intervals so the background flusher runs with dirty state,
	// then make sure appends, checkpoint rotation, and close all still work.
	time.Sleep(25 * time.Millisecond)
	sp := testSparsifier(t, 6, 6)
	if err := st.WriteCheckpoint(Checkpoint{Gen: 3, State: sp.PersistentState()}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rec(4, []graph.Edge{{U: 4, V: 0, W: 1}})); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything after the checkpoint is still replayable.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var gens []uint64
	if err := st2.Replay(3, func(r BatchRecord) error { gens = append(gens, r.Gen); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != 4 {
		t.Fatalf("replay after interval-sync run saw %v", gens)
	}
}

func TestRestoreState(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sp := testSparsifier(t, 6, 6)
	if err := st.WriteCheckpoint(Checkpoint{Gen: 0, State: sp.PersistentState()}); err != nil {
		t.Fatal(err)
	}
	// Apply two batches to the live engine, logging each.
	b1 := []graph.Edge{{U: 0, V: 25, W: 2}, {U: 5, V: 30, W: 0.5}}
	if _, err := sp.UpdateBatch(append([]graph.Edge(nil), b1...)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rec(1, b1)); err != nil {
		t.Fatal(err)
	}
	del := []graph.Edge{{U: 0, V: 25}}
	if _, err := sp.DeleteEdges(del); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rec(2, nil, del)); err != nil {
		t.Fatal(err)
	}

	got, gen, err := st.RestoreState()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("recovered gen %d", gen)
	}
	if got.Stats() != sp.Stats() {
		t.Fatalf("stats %+v vs %+v", got.Stats(), sp.Stats())
	}
	for i := range sp.H.All() {
		a, b := got.H.Edge(i), sp.H.Edge(i)
		if a.U != b.U || a.V != b.V || math.Float64bits(a.W) != math.Float64bits(b.W) {
			t.Fatalf("H edge %d: %+v vs %+v", i, a, b)
		}
	}

	// A generation gap (simulating records lost while durability was
	// degraded without a healing checkpoint) fails loudly.
	if _, err := st.Append(rec(9, []graph.Edge{{U: 1, V: 3, W: 1}})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.RestoreState(); err == nil {
		t.Fatal("want generation-gap error")
	}
}
