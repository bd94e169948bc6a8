package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"ingrass/internal/core"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/obs/trace"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
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

func newEngine(t testing.TB, rows, cols int, opts Options) *Engine {
	t.Helper()
	e := New(newSparsifier(t, rows, cols), opts)
	t.Cleanup(e.Close)
	return e
}

// newSparsifier is the set-up sparsifier newEngine serves: the same grid
// and seeds give the same state every time.
func newSparsifier(t testing.TB, rows, cols int) *core.Sparsifier {
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

func ctxT(t testing.TB) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestWriteBecomesVisibleAfterFlush(t *testing.T) {
	e := newEngine(t, 8, 8, Options{})
	ctx := ctxT(t)
	snap0 := e.Current()
	if snap0.Gen != 0 {
		t.Fatalf("initial generation %d", snap0.Gen)
	}
	edges0 := snap0.G.NumEdges()

	res, err := e.Add(ctx, []graph.Edge{{U: 0, V: 63, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation == 0 {
		t.Fatalf("write completed without a generation bump: %+v", res)
	}
	if got := res.Included + res.Merged + res.Redistributed; got != 1 {
		t.Fatalf("one edge should yield one decision, got %+v", res)
	}
	snap1 := e.Current()
	if snap1.Gen < res.Generation {
		t.Fatalf("current gen %d behind write gen %d", snap1.Gen, res.Generation)
	}
	if snap1.G.NumEdges() != edges0+1 {
		t.Fatalf("G edges %d -> %d, want +1", edges0, snap1.G.NumEdges())
	}
	// The old snapshot is untouched.
	if snap0.G.NumEdges() != edges0 {
		t.Fatal("generation-0 snapshot mutated")
	}
}

// parkWriter holds the engine's write lock while the writer goroutine
// flushes a barrier, so every write enqueued before release runs queues
// behind that flush and is taken as one batch. Adds must be enqueued with
// mustEnqueue while parked: AddAsync validates under the same lock.
func parkWriter(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	e.mu.Lock()
	var once sync.Once
	release = func() { once.Do(e.mu.Unlock) }
	t.Cleanup(release)
	mustEnqueue(t, e, opBarrier, nil)
	return release
}

func mustEnqueue(t *testing.T, e *Engine, kind opKind, edges []graph.Edge) *Pending {
	t.Helper()
	p, err := e.enqueue(kind, edges, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCoalescingSingleFlush(t *testing.T) {
	// Writes that queue while a flush runs are taken as one batch.
	e := newEngine(t, 6, 6, Options{MaxBatch: 10_000})
	ctx := ctxT(t)
	release := parkWriter(t, e)
	var pendings []*Pending
	for i := 0; i < 20; i++ {
		pendings = append(pendings, mustEnqueue(t, e, opAdd, []graph.Edge{{U: i % 36, V: (i + 7) % 36, W: 1 + float64(i)}}))
	}
	release()
	gens := map[uint64]bool{}
	for _, p := range pendings {
		res, err := p.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gens[res.Generation] = true
	}
	if len(gens) != 1 {
		t.Fatalf("coalesced writes landed in %d generations, want 1", len(gens))
	}
	if st := e.Stats(); st.Flushes != 2 {
		t.Fatalf("flushes = %d, want 2 (the parked barrier, then every queued write)", st.Flushes)
	}
}

// TestAddCountsByPosition: a flush attributes each filter decision to the
// request that carried its edge, by position. Two requests carrying the
// identical edge and a rejected request among valid ones each get exactly
// the counts one UpdateBatch of the valid requests' edges, in order, gives
// their edges.
func TestAddCountsByPosition(t *testing.T) {
	reqs := [][]graph.Edge{
		{{U: 0, V: 35, W: 1}, {U: 5, V: 30, W: 2}},
		{{U: 5, V: 30, W: 2}},
		{{U: 3, V: 3, W: 1}}, // self-loop: rejected at flush
		{{U: 1, V: 34, W: 0.5}, {U: 2, V: 20, W: 4}, {U: 7, V: 28, W: 1}},
		{{U: 0, V: 35, W: 1}, {U: 6, V: 29, W: 3}},
	}
	const rejected = 2

	var adds []graph.Edge
	for i, r := range reqs {
		if i != rejected {
			adds = append(adds, r...)
		}
	}
	decs, err := newSparsifier(t, 6, 6).UpdateBatch(append([]graph.Edge(nil), adds...))
	if err != nil {
		t.Fatal(err)
	}
	actions := make([]core.Action, len(adds))
	for _, d := range decs {
		actions[d.Pos] = d.Action
	}
	// Positions 1 and 2 carry the identical edge: the first copy is
	// included, the second then merges.
	if actions[1] == actions[2] {
		t.Fatalf("fixture: both copies of the identical edge were %v", actions[1])
	}

	e := newEngine(t, 6, 6, Options{MaxBatch: 10_000})
	ctx := ctxT(t)
	release := parkWriter(t, e)
	pendings := make([]*Pending, len(reqs))
	for i, r := range reqs {
		pendings[i] = mustEnqueue(t, e, opAdd, r)
	}
	release()
	next := 0
	for i, p := range pendings {
		res, err := p.Wait(ctx)
		if i == rejected {
			if err == nil {
				t.Fatal("self-loop request succeeded")
			}
			continue
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var want WriteResult
		for _, a := range actions[next : next+len(reqs[i])] {
			switch a {
			case core.Included:
				want.Included++
			case core.Merged:
				want.Merged++
			case core.Redistributed:
				want.Redistributed++
			}
		}
		next += len(reqs[i])
		want.Generation = res.Generation
		if res != want {
			t.Errorf("request %d: %+v, want %+v", i, res, want)
		}
	}
	if st := e.Stats(); st.Flushes != 2 || st.WriteErrors != 1 {
		t.Fatalf("flushes %d, write errors %d; want 2 and 1 (one coalesced batch)", st.Flushes, st.WriteErrors)
	}
}

func TestErrorIsolation(t *testing.T) {
	e := newEngine(t, 6, 6, Options{MaxBatch: 10_000})
	ctx := ctxT(t)
	release := parkWriter(t, e)
	good := mustEnqueue(t, e, opAdd, []graph.Edge{{U: 0, V: 35, W: 1}})
	// Deleting a nonexistent edge fails at flush time; it must not poison
	// the coalesced good request.
	bad := mustEnqueue(t, e, opDelete, []graph.Edge{{U: 0, V: 34}})
	release()
	if _, err := good.Wait(ctx); err != nil {
		t.Fatalf("good request failed: %v", err)
	}
	if _, err := bad.Wait(ctx); err == nil {
		t.Fatal("bad delete unexpectedly succeeded")
	}
	if st := e.Stats(); st.WriteErrors != 1 || st.Flushes != 2 {
		t.Fatalf("write errors = %d, flushes = %d; want 1 and 2 (one coalesced batch)", st.WriteErrors, st.Flushes)
	}
}

func TestAddValidationUpFront(t *testing.T) {
	e := newEngine(t, 4, 4, Options{})
	if _, err := e.AddAsync([]graph.Edge{{U: 0, V: 0, W: 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := e.AddAsync([]graph.Edge{{U: 0, V: 99, W: 1}}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := e.AddAsync(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	for _, w := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -1} {
		if _, err := e.AddAsync([]graph.Edge{{U: 0, V: 5, W: w}}); !errors.Is(err, core.ErrInvalidEdge) {
			t.Fatalf("weight %v: got %v, want core.ErrInvalidEdge", w, err)
		}
	}
}

// TestFlushRejectsNonFiniteWeight: an add that reaches the batcher with a
// +Inf weight fails alone at flush with core.ErrInvalidEdge, as every
// statically invalid add does; the coalesced valid request is applied and
// the batcher keeps serving.
func TestFlushRejectsNonFiniteWeight(t *testing.T) {
	e := newEngine(t, 6, 6, Options{MaxBatch: 10_000})
	ctx := ctxT(t)
	release := parkWriter(t, e)
	bad := mustEnqueue(t, e, opAdd, []graph.Edge{{U: 0, V: 5, W: math.Inf(1)}})
	good := mustEnqueue(t, e, opAdd, []graph.Edge{{U: 0, V: 35, W: 1}})
	release()
	if _, err := bad.Wait(ctx); !errors.Is(err, core.ErrInvalidEdge) {
		t.Fatalf("+Inf weight: got %v, want core.ErrInvalidEdge", err)
	}
	if _, err := good.Wait(ctx); err != nil {
		t.Fatalf("coalesced valid request: %v", err)
	}
	if _, err := e.Add(ctx, []graph.Edge{{U: 1, V: 34, W: 2}}); err != nil {
		t.Fatalf("write after the rejection: %v", err)
	}
	if st := e.Stats(); st.WriteErrors != 1 {
		t.Fatalf("write errors = %d, want 1", st.WriteErrors)
	}
}

func TestDeleteFlow(t *testing.T) {
	e := newEngine(t, 6, 6, Options{})
	ctx := ctxT(t)
	if _, err := e.Add(ctx, []graph.Edge{{U: 0, V: 35, W: 2}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Delete(ctx, []graph.Edge{{U: 0, V: 35}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("deleted = %d, want 1", res.Deleted)
	}
	if cs := e.CoreStats(); cs.Deleted != 1 {
		t.Fatalf("core deleted = %d", cs.Deleted)
	}
}

func TestRegistryRetention(t *testing.T) {
	e := newEngine(t, 6, 6, Options{Retain: 2})
	ctx := ctxT(t)
	for i := 0; i < 4; i++ {
		if _, err := e.Add(ctx, []graph.Edge{{U: i, V: 35 - i, W: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cur := e.Current()
	if _, ok := e.At(cur.Gen); !ok {
		t.Fatal("current generation not addressable")
	}
	if _, ok := e.At(0); ok {
		t.Fatal("generation 0 should have been evicted with Retain=2")
	}
	gens := e.Generations()
	if len(gens) != 2 {
		t.Fatalf("retained %d generations, want 2: %v", len(gens), gens)
	}
}

func TestSolveAgainstSnapshot(t *testing.T) {
	e := newEngine(t, 8, 8, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(3 * i))
	}
	vecmath.CenterMean(b)
	x := make([]float64, n)
	st, err := snap.SolveInto(context.Background(), x, b, solver.Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Generation != snap.Gen || st.PrecondUses <= 0 {
		t.Fatalf("solve stats: %+v", st)
	}
	// Check the residual directly against the snapshot Laplacian.
	r := make([]float64, n)
	snap.G.LapMul(r, x)
	vecmath.Sub(r, b, r)
	if rel := vecmath.Norm2(r) / vecmath.Norm2(b); rel > 1e-6 {
		t.Fatalf("relative residual %v", rel)
	}
}

func TestPrecondCachePerGeneration(t *testing.T) {
	e := newEngine(t, 8, 8, Options{})
	snap := e.Current()
	b := make([]float64, snap.G.NumNodes())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	vecmath.CenterMean(b)
	before := e.Stats()
	const solves = 8
	for i := 0; i < solves; i++ {
		if _, err := snap.SolveInto(context.Background(), make([]float64, len(b)), b, solver.Options{Tol: 1e-8}); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if builds := after.PrecondBuilds - before.PrecondBuilds; builds != 1 {
		t.Fatalf("%d factorizations for %d solves on one generation, want 1", builds, solves)
	}
	if reuses := after.PrecondReuses - before.PrecondReuses; reuses != solves-1 {
		t.Fatalf("%d reuses, want %d", reuses, solves-1)
	}
}

// TestEffectiveResistance checks the scheduled resistance path every
// library and HTTP query takes.
func TestEffectiveResistance(t *testing.T) {
	e := newEngine(t, 6, 6, Options{})
	snap := e.Current()
	ctx := context.Background()
	r, err := e.ResistanceCoalesced(ctx, snap, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || r >= 1 {
		// Adjacent unit-weight grid nodes: parallel paths force R < 1.
		t.Fatalf("resistance %v out of (0, 1)", r)
	}
	rBack, err := e.ResistanceCoalesced(ctx, snap, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-rBack) > 1e-6 {
		t.Fatalf("asymmetric resistance: %v vs %v", r, rBack)
	}
	if same, err := e.ResistanceCoalesced(ctx, snap, 3, 3); err != nil || same != 0 {
		t.Fatalf("self resistance: %v, %v", same, err)
	}
	if _, err := e.ResistanceCoalesced(ctx, snap, -1, 2); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestConditionNumberOnSnapshot(t *testing.T) {
	e := newEngine(t, 6, 6, Options{})
	k, err := e.Current().ConditionNumber(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if k < 1 || math.IsInf(k, 0) || math.IsNaN(k) {
		t.Fatalf("kappa = %v", k)
	}
}

func TestCloseRejectsNewWritesAndFlushesPending(t *testing.T) {
	e := newEngine(t, 6, 6, Options{MaxBatch: 10_000})
	release := parkWriter(t, e)
	p := mustEnqueue(t, e, opAdd, []graph.Edge{{U: 0, V: 35, W: 1}})
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	for !e.closed.Load() {
		runtime.Gosched()
	}
	release()
	<-closed
	select {
	case <-p.Done():
	default:
		t.Fatal("pending write dropped at close")
	}
	if _, err := p.Result(); err != nil {
		t.Fatalf("pending write failed at close: %v", err)
	}
	if _, err := e.AddAsync([]graph.Edge{{U: 1, V: 34, W: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close write: %v", err)
	}
	if err := e.Flush(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close flush: %v", err)
	}
	e.Close() // idempotent
}

func TestMaxBatchTriggersFlush(t *testing.T) {
	e := newEngine(t, 6, 6, Options{MaxBatch: 4})
	ctx := ctxT(t)
	release := parkWriter(t, e)
	// 4 edges reach MaxBatch: that batch flushes before the write queued
	// behind it is taken.
	full := mustEnqueue(t, e, opAdd, []graph.Edge{
		{U: 0, V: 20, W: 1}, {U: 1, V: 21, W: 1},
		{U: 2, V: 22, W: 1}, {U: 3, V: 23, W: 1},
	})
	next := mustEnqueue(t, e, opAdd, []graph.Edge{{U: 4, V: 24, W: 1}})
	release()
	rf, err := full.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := next.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Generation == 0 || rn.Generation != rf.Generation+1 {
		t.Fatalf("generations %d then %d: MaxBatch did not seal the batch", rf.Generation, rn.Generation)
	}
	if st := e.Stats(); st.Flushes != 3 {
		t.Fatalf("flushes = %d, want 3", st.Flushes)
	}
}
