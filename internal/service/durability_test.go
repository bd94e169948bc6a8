package service

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ingrass/internal/core"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
	"ingrass/internal/wal"
)

// newDurableEngine builds an engine identical to newEngine but attached to
// a store in dir, with an initial generation-0 checkpoint so the store is
// recoverable from the first write on.
func newDurableEngine(t testing.TB, rows, cols int, opts Options, dir string, wopts wal.Options) (*Engine, *wal.Store) {
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
	store, err := wal.Open(dir, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteCheckpoint(wal.Checkpoint{Gen: 0, State: sp.PersistentState()}); err != nil {
		t.Fatal(err)
	}
	opts.Store = store
	e := New(sp, opts)
	t.Cleanup(func() {
		e.Close()
		store.Close()
	})
	return e, store
}

func sameGraphBits(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: size mismatch %v vs %v", name, a, b)
	}
	for i := range a.All() {
		ea, eb := a.Edge(i), b.Edge(i)
		if ea.U != eb.U || ea.V != eb.V || math.Float64bits(ea.W) != math.Float64bits(eb.W) {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", name, i, ea, eb)
		}
	}
}

// streamOp is one step of a synthetic workload.
type streamOp struct {
	del   bool
	edges []graph.Edge
}

// makeStream builds a deterministic interleaved add/delete workload over
// [0, n). Deletions only target pairs previously added (and not yet
// exhausted), so every request succeeds on a correct engine.
func makeStream(n, ops int, seed uint64) []streamOp {
	rng := vecmath.NewRNG(seed)
	live := map[uint64]int{} // canonical pair key -> deletable count
	dead := map[uint64]bool{}
	var keys []uint64
	keyEdges := map[uint64]graph.Edge{}
	var out []streamOp
	for len(out) < ops {
		if len(keys) > 0 && rng.Intn(5) == 0 {
			// Delete one previously added pair.
			ki := rng.Intn(len(keys))
			k := keys[ki]
			e := keyEdges[k]
			out = append(out, streamOp{del: true, edges: []graph.Edge{{U: e.U, V: e.V}}})
			live[k]--
			if live[k] == 0 {
				keys[ki] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
				delete(live, k)
				dead[k] = true
			}
			continue
		}
		batch := make([]graph.Edge, 1+rng.Intn(4))
		for i := range batch {
			u, v := rng.Intn(n), rng.Intn(n)
			for u == v {
				v = rng.Intn(n)
			}
			e := graph.Edge{U: u, V: v, W: 0.25 + 2*rng.Float64()}
			batch[i] = e
			k := graph.KeyOf(u, v)
			// A pair is deletable at most once, and never after it has been
			// soft-deleted: duplicate pairs coalesce in the core, and a
			// re-added pair aliases the tombstone left by its deletion, so a
			// second delete of either kind would fail.
			if live[k] == 0 && !dead[k] {
				keys = append(keys, k)
				live[k] = 1
			}
			keyEdges[k] = e
		}
		out = append(out, streamOp{edges: batch})
	}
	return out
}

func applyOp(t *testing.T, e *Engine, op streamOp) {
	t.Helper()
	ctx := ctxT(t)
	var err error
	if op.del {
		_, err = e.Delete(ctx, append([]graph.Edge(nil), op.edges...))
	} else {
		_, err = e.Add(ctx, append([]graph.Edge(nil), op.edges...))
	}
	if err != nil {
		t.Fatalf("apply %+v: %v", op, err)
	}
}

// TestRecoveryMatchesUninterruptedRun is the acceptance property test: a
// random add/delete stream runs through a durable engine with a checkpoint
// at a random midpoint; the process then "crashes" (the in-memory engine is
// dropped, only the data directory survives); recovery must land on the
// exact generation with identical sparsifier stats, bit-identical graphs,
// and matching solve output compared to an uninterrupted in-memory run.
func TestRecoveryMatchesUninterruptedRun(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		seed := seed
		t.Run("", func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{MaxBatch: 1} // one flush per request in both engines
			durable, store := newDurableEngine(t, 8, 8, opts, dir, wal.Options{Sync: wal.SyncNever})
			reference := newEngine(t, 8, 8, opts)

			n := durable.Current().G.NumNodes()
			stream := makeStream(n, 60, seed)
			ckAt := int(vecmath.NewRNG(seed^0xC0FFEE).Intn(len(stream)-2)) + 1

			for i, op := range stream {
				applyOp(t, durable, op)
				applyOp(t, reference, op)
				if i == ckAt {
					if gen, err := durable.Checkpoint(); err != nil {
						t.Fatalf("checkpoint at op %d (gen %d): %v", i, gen, err)
					}
				}
			}

			wantGen := durable.Current().Gen
			if refGen := reference.Current().Gen; wantGen != refGen {
				t.Fatalf("durable engine at gen %d, reference at %d", wantGen, refGen)
			}
			wantStats := durable.CoreStats()
			rhs := warmRHS(n)
			wantX := make([]float64, n)
			if _, err := durable.Current().SolveInto(ctxT(t), wantX, rhs, solver.Options{Tol: 1e-10}); err != nil {
				t.Fatal(err)
			}

			// Crash: drop the engine; only the files survive. (Close flushes
			// the already-acknowledged writes; torn-tail crashes are covered
			// by TestRecoveryTruncatesTornFinalRecord.)
			durable.Close()
			store.Close()

			store2, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			recovered, err := Recover(store2, Options{MaxBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				recovered.Close()
				store2.Close()
			}()

			if got := recovered.Current().Gen; got != wantGen {
				t.Fatalf("recovered at generation %d, want %d", got, wantGen)
			}
			if got := recovered.CoreStats(); got != wantStats {
				t.Fatalf("recovered stats %+v, want %+v", got, wantStats)
			}
			refSnap := reference.Current()
			recSnap := recovered.Current()
			sameGraphBits(t, "G", recSnap.G, refSnap.G)
			sameGraphBits(t, "H", recSnap.H, refSnap.H)

			gotX := make([]float64, n)
			if _, err := recSnap.SolveInto(ctxT(t), gotX, rhs, solver.Options{Tol: 1e-10}); err != nil {
				t.Fatal(err)
			}
			num, den := 0.0, vecmath.Norm2(wantX)
			for i := range gotX {
				d := gotX[i] - wantX[i]
				num += d * d
			}
			if math.Sqrt(num) > 1e-9*(1+den) {
				t.Fatalf("recovered solve diverges: ||dx|| = %g", math.Sqrt(num))
			}

			// The recovered engine keeps serving writes and stays replayable.
			applyOp(t, recovered, streamOp{edges: []graph.Edge{{U: 0, V: n - 1, W: 1.5}}})
			if got := recovered.Current().Gen; got != wantGen+1 {
				t.Fatalf("post-recovery write at gen %d, want %d", got, wantGen+1)
			}
		})
	}
}

// TestRecoveryTruncatesTornFinalRecord simulates a crash mid-append: the
// last WAL record is chopped mid-payload. Recovery must drop exactly that
// record (whose write was never acknowledged) and land on the previous
// generation with a consistent engine, rather than failing or corrupting.
func TestRecoveryTruncatesTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	e, store := newDurableEngine(t, 8, 8, Options{MaxBatch: 1}, dir, wal.Options{Sync: wal.SyncNever})
	n := e.Current().G.NumNodes()
	for _, op := range makeStream(n, 10, 21) {
		applyOp(t, e, op)
	}
	genBefore := e.Current().Gen
	e.Close()
	store.Close()

	// Chop bytes off the single segment's tail, landing mid-record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(store2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		rec.Close()
		store2.Close()
	}()
	if got := rec.Current().Gen; got != genBefore-1 {
		t.Fatalf("recovered at gen %d, want %d (torn record dropped)", got, genBefore-1)
	}
	if err := rec.Current().G.Validate(); err != nil {
		t.Fatalf("recovered G invalid: %v", err)
	}
	if err := rec.Current().H.Validate(); err != nil {
		t.Fatalf("recovered H invalid: %v", err)
	}
	x := make([]float64, n)
	if _, err := rec.Current().SolveInto(ctxT(t), x, warmRHS(n), solver.Options{Tol: 1e-8}); err != nil {
		t.Fatalf("solve on recovered engine: %v", err)
	}
}

// TestRecoverRequiresCheckpoint: an empty data directory is not recoverable.
func TestRecoverRequiresCheckpoint(t *testing.T) {
	store, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Recover(store, Options{}); !errors.Is(err, wal.ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

// TestCheckpointDoesNotStallWriters checkpoints concurrently with a live
// write stream (under -race this also audits the snapshot/stats capture):
// every interleaving must leave a recoverable store whose replay reaches
// the final generation.
func TestCheckpointDoesNotStallWriters(t *testing.T) {
	dir := t.TempDir()
	e, store := newDurableEngine(t, 8, 8, Options{MaxBatch: 4}, dir, wal.Options{Sync: wal.SyncNever})
	n := e.Current().G.NumNodes()
	stream := makeStream(n, 40, 5)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := e.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	for _, op := range stream {
		applyOp(t, e, op)
	}
	wg.Wait()

	if err := e.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	finalGen := e.Current().Gen
	finalStats := e.CoreStats()
	st := e.Stats()
	if st.Checkpoints != 6 {
		t.Fatalf("checkpoint counter %d", st.Checkpoints)
	}
	if st.WALErrors != 0 {
		t.Fatalf("unexpected WAL errors: %d", st.WALErrors)
	}
	e.Close()
	store.Close()

	store2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(store2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		rec.Close()
		store2.Close()
	}()
	if got := rec.Current().Gen; got != finalGen {
		t.Fatalf("recovered gen %d, want %d", got, finalGen)
	}
	if got := rec.CoreStats(); got != finalStats {
		t.Fatalf("recovered stats %+v, want %+v", got, finalStats)
	}
}

// TestCheckpointWithoutStore: engines without a store refuse Checkpoint.
func TestCheckpointWithoutStore(t *testing.T) {
	e := newEngine(t, 6, 6, Options{})
	if _, err := e.Checkpoint(); !errors.Is(err, ErrNoStore) {
		t.Fatalf("want ErrNoStore, got %v", err)
	}
}
