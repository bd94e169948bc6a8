package wal

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ingrass/internal/graph"
)

func maintRec(gen uint64, target float64, h *graph.Graph) BatchRecord {
	return BatchRecord{Gen: gen, Maint: &MaintRecord{TargetCond: target, HBase: h}}
}

func TestMaintRecordRoundTrip(t *testing.T) {
	sp := testSparsifier(t, 6, 6)
	in := maintRec(7, 42.5, sp.H.Snapshot())
	payload, err := in.encodePayload()
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Gen != 7 || out.Maint == nil {
		t.Fatalf("round trip mangled shape: %+v", out)
	}
	if math.Float64bits(out.Maint.TargetCond) != math.Float64bits(42.5) {
		t.Fatalf("target cond %v", out.Maint.TargetCond)
	}
	a, b := in.Maint.HBase, out.Maint.HBase
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("graph shape %v vs %v", a, b)
	}
	for i := range a.All() {
		ea, eb := a.Edge(i), b.Edge(i)
		if ea.U != eb.U || ea.V != eb.V || math.Float64bits(ea.W) != math.Float64bits(eb.W) {
			t.Fatalf("edge %d: %+v vs %+v", i, ea, eb)
		}
	}
	// recordGen peeks maintenance records too (the open scan walks them).
	gen, err := recordGen(payload)
	if err != nil || gen != 7 {
		t.Fatalf("recordGen = %d, %v", gen, err)
	}

	// Unencodable shapes fail loudly instead of writing garbage.
	if _, err := (BatchRecord{Gen: 1, Maint: &MaintRecord{}}).encodePayload(); err == nil {
		t.Fatal("want error for maintenance record without a graph")
	}
	bad := maintRec(1, 10, sp.H.Snapshot())
	bad.Adds = []graph.Edge{{U: 0, V: 1, W: 1}}
	if _, err := bad.encodePayload(); err == nil {
		t.Fatal("want error for maintenance record carrying batch edges")
	}
}

// TestFailAppendInjection: the clean-I/O-error fault. The injected failure
// must surface from Append without any byte reaching the segment, and
// clearing the hook must restore normal appends at an unbroken offset.
func TestFailAppendInjection(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected append failure")
	armed := true
	st, err := Open(dir, Options{Sync: SyncNever, FailAppend: func(BatchRecord) error {
		if armed {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rec(1, []graph.Edge{{U: 0, V: 1, W: 1}})); !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	armed = false
	if _, err := st.Append(rec(1, []graph.Edge{{U: 0, V: 1, W: 1}})); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The failed append left no trace: exactly one record on disk.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	count := 0
	if err := st2.Replay(0, func(BatchRecord) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("want 1 surviving record, got %d", count)
	}
}

// TestCrashMidMaintRecord sweeps tear offsets through a maintenance record's
// frame — nothing written, mid-header, mid-graph-payload, one byte short —
// and demands every reopen classifies the tear as an unacknowledged torn
// tail: the preceding batch records survive, the maintenance record is
// truncated away, and the store accepts appends again.
func TestCrashMidMaintRecord(t *testing.T) {
	sp := testSparsifier(t, 6, 6)
	mrec := maintRec(3, 50, sp.H.Snapshot())
	frameLen, err := FrameSize(mrec)
	if err != nil {
		t.Fatal(err)
	}
	if frameLen <= frameHeaderSize {
		t.Fatalf("frame suspiciously small: %d", frameLen)
	}
	tears := []int{0, frameHeaderSize / 2, frameHeaderSize + 1, frameLen / 2, frameLen - 1}
	for _, n := range tears {
		t.Run(fmt.Sprintf("tear=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			for gen := uint64(1); gen <= 2; gen++ {
				if _, err := st.Append(rec(gen, []graph.Edge{{U: int(gen), V: 0, W: 1}})); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.CrashAppend(mrec, n); err != nil {
				t.Fatal(err)
			}
			// The crashed store is dead.
			if _, err := st.Append(rec(4, nil)); !errors.Is(err, ErrClosed) {
				t.Fatalf("want ErrClosed after crash, got %v", err)
			}

			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			var gens []uint64
			if err := st2.Replay(0, func(r BatchRecord) error {
				if r.Maint != nil {
					t.Fatalf("torn maintenance record replayed at tear %d", n)
				}
				gens = append(gens, r.Gen)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(gens) != 2 || gens[0] != 1 || gens[1] != 2 {
				t.Fatalf("surviving records %v", gens)
			}
			// The repaired store continues at the pre-crash generation.
			if _, err := st2.Append(maintRec(3, 50, sp.H.Snapshot())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashAfterFullMaintFrame: a crash after the last byte landed is not a
// tear — the complete record must survive the reopen.
func TestCrashAfterFullMaintFrame(t *testing.T) {
	sp := testSparsifier(t, 6, 6)
	mrec := maintRec(1, 75, sp.H.Snapshot())
	frameLen, err := FrameSize(mrec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CrashAppend(mrec, frameLen); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	found := false
	if err := st2.Replay(0, func(r BatchRecord) error {
		if r.Maint != nil && r.Gen == 1 && r.Maint.TargetCond == 75 {
			found = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("complete maintenance record lost on reopen")
	}
}

// TestRestoreStateWithMaintRecord: end-to-end replay through a maintenance
// record. A live sparsifier logs a batch, swaps its basis (logging the swap),
// then logs another batch; RestoreState must reproduce the live H bit for
// bit — the decode → AdoptBasis path and the in-process swap agree exactly.
func TestRestoreStateWithMaintRecord(t *testing.T) {
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
	b1 := []graph.Edge{{U: 0, V: 25, W: 2}, {U: 5, V: 30, W: 0.5}, {U: 7, V: 31, W: 1.2}}
	if _, err := sp.UpdateBatch(append([]graph.Edge(nil), b1...)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rec(1, b1)); err != nil {
		t.Fatal(err)
	}

	// The swap: rebuild from the current snapshot (what the service's writer
	// does through core.BuildSetup/AdoptSetup) and log the same image.
	hSnap := sp.H.Snapshot()
	if err := sp.AdoptBasis(hSnap, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(maintRec(2, 60, hSnap)); err != nil {
		t.Fatal(err)
	}

	b2 := []graph.Edge{{U: 2, V: 33, W: 0.8}, {U: 11, V: 29, W: 1.9}}
	if _, err := sp.UpdateBatch(append([]graph.Edge(nil), b2...)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rec(3, b2)); err != nil {
		t.Fatal(err)
	}

	got, gen, err := st.RestoreState()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("recovered gen %d", gen)
	}
	if got.Stats() != sp.Stats() {
		t.Fatalf("stats %+v vs %+v", got.Stats(), sp.Stats())
	}
	if got.FilterLevel() != sp.FilterLevel() {
		t.Fatalf("filter level %d vs %d", got.FilterLevel(), sp.FilterLevel())
	}
	if got.Config().TargetCond != 60 {
		t.Fatalf("replayed TargetCond %v", got.Config().TargetCond)
	}
	for i := range sp.H.All() {
		a, b := got.H.Edge(i), sp.H.Edge(i)
		if a.U != b.U || a.V != b.V || math.Float64bits(a.W) != math.Float64bits(b.W) {
			t.Fatalf("H edge %d: %+v vs %+v", i, a, b)
		}
	}
}
