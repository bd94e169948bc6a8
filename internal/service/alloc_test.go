package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"ingrass/internal/batch"
	"ingrass/internal/core"
	"ingrass/internal/graph"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
	"ingrass/internal/wal"
)

func warmRHS(n int) []float64 {
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}
	vecmath.CenterMean(rhs)
	return rhs
}

// TestWarmSolveAllocationFree is the allocation-regression gate from the
// roadmap's bounded-per-request-work goal: once the per-generation
// factorization and the workspace pools are warm, SolveInto must not
// allocate — all scratch comes from pooled workspaces. The budget of 1.0
// absorbs rare pool refills when GC empties a sync.Pool mid-run; the
// steady-state count is 0.
func TestWarmSolveAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	e := newEngine(t, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	rhs := warmRHS(n)
	x := make([]float64, n)
	ctx := context.Background()
	opts := solver.Options{Tol: 1e-8}

	// Warm the factorization, the state pool, and the workspace pools.
	for i := 0; i < 3; i++ {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	}
	if !snap.fact.Factored() {
		t.Fatal("grid sparsifier hit the pivot-degree cap; want the exact regime")
	}

	allocs := testing.AllocsPerRun(50, func() {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.0 {
		t.Fatalf("warm SolveInto allocates %.2f objects/op, want ~0", allocs)
	}
}

// TestWarmSolveAllocationFreeSELL pins the same zero-allocation budget on
// the SELL-frozen operator path: the arena-backed SELL build happens once at
// factorization, so warm solves through the column-major chunk kernels must
// be exactly as allocation-free as the CSR path.
func TestWarmSolveAllocationFreeSELL(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	e := newEngine(t, 16, 16, Options{Solver: solver.Options{Format: solver.FormatSELL}})
	snap := e.Current()
	if err := snap.ensureFactorized(); err != nil {
		t.Fatal(err)
	}
	if got := snap.gop.Format(); got != solver.FormatSELL {
		t.Fatalf("engine froze %v, want forced SELL", got)
	}
	n := snap.G.NumNodes()
	rhs := warmRHS(n)
	x := make([]float64, n)
	ctx := context.Background()
	opts := solver.Options{Tol: 1e-8}

	for i := 0; i < 3; i++ {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(50, func() {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.0 {
		t.Fatalf("warm SELL SolveInto allocates %.2f objects/op, want ~0", allocs)
	}
}

// TestWarmSolveAllocationFreeFallback pins the zero-allocation budget on
// the preconditioner's fallback, the Jacobi regime: on a complete graph the
// first pivot has degree n-1, above the elimination cap, so the
// factorization keeps no factor and every solve preconditions with G's
// Jacobi diagonal. Both storage formats of G's operator stay under the
// gate.
func TestWarmSolveAllocationFreeFallback(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	for _, format := range []solver.Format{solver.FormatCSR, solver.FormatSELL} {
		t.Run(format.String(), func(t *testing.T) {
			e := newCompleteEngine(t, 70, Options{Solver: solver.Options{Format: format}})
			snap := e.Current()
			if err := snap.ensureFactorized(); err != nil {
				t.Fatal(err)
			}
			if snap.fact.Factored() {
				t.Fatal("complete-graph sparsifier was factored exactly; want the Jacobi regime")
			}
			if got := snap.gop.Format(); got != format {
				t.Fatalf("G operator froze %v, want forced %v", got, format)
			}
			n := snap.G.NumNodes()
			rhs := warmRHS(n)
			x := make([]float64, n)
			ctx := context.Background()
			opts := solver.Options{Tol: 1e-8}
			for i := 0; i < 3; i++ {
				st, err := snap.SolveInto(ctx, x, rhs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if st.PrecondUses != 0 {
					t.Fatalf("Jacobi-regime solve reported %d sparsifier solves", st.PrecondUses)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1.0 {
				t.Fatalf("warm Jacobi-regime SolveInto allocates %.2f objects/op, want ~0", allocs)
			}
		})
	}
}

// newCompleteEngine serves the complete graph K_n with H = G, a sparsifier
// whose elimination exceeds the pivot-degree cap for n > 65.
func newCompleteEngine(t testing.TB, n int, opts Options) *Engine {
	t.Helper()
	g := graph.New(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v, 1+float64((u+v)%3))
		}
	}
	sp, err := core.NewSparsifier(g, g.Clone(), core.Config{
		TargetCond: 50,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(sp, opts)
	t.Cleanup(e.Close)
	return e
}

// TestWarmSolveAllocationFreeWithWAL pins the same zero-allocation budget
// with durability enabled: the WAL sits on the write path only, so warm
// solves must not pick up a single allocation from it — even on an engine
// that has logged writes and checkpointed.
func TestWarmSolveAllocationFreeWithWAL(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	e, _ := newDurableEngine(t, 16, 16, Options{MaxBatch: 1}, t.TempDir(), wal.Options{})
	n := e.Current().G.NumNodes()
	// Exercise the durable write path so the engine is past generation 0.
	ctx := context.Background()
	if _, err := e.Add(ctx, []graph.Edge{{U: 0, V: n - 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := e.Current()
	rhs := warmRHS(n)
	x := make([]float64, n)
	opts := solver.Options{Tol: 1e-8}
	for i := 0; i < 3; i++ {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.0 {
		t.Fatalf("warm SolveInto with WAL allocates %.2f objects/op, want ~0", allocs)
	}
}

// TestWarmResistanceAllocationFree covers the resistance read path: the
// executor's run of a pair group draws the basis right-hand side and the
// solution column from the snapshot's pooled workspaces, so once warm it
// allocates nothing.
func TestWarmResistanceAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	e := newEngine(t, 12, 12, Options{})
	snap := e.Current()
	r := &batch.Req{Ctx: context.Background(), Kind: batch.KindPair, U: 0, V: 5}
	group := []*batch.Req{r}
	run := func() {
		e.execGroup(snap, group)
		if r.Err != nil || !(r.Resistance > 0) {
			t.Fatalf("resistance %g, err %v", r.Resistance, r.Err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	if allocs > 1.0 {
		t.Fatalf("warm pair group allocates %.2f objects/op, want ~0", allocs)
	}
}

// TestSolveCancelledContext is the service-level acceptance check: a solve
// issued with an already-cancelled context returns an ErrCancelled-matching
// error without consuming any iteration budget.
func TestSolveCancelledContext(t *testing.T) {
	e := newEngine(t, 12, 12, Options{})
	snap := e.Current()
	rhs := warmRHS(snap.G.NumNodes())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := snap.SolveInto(ctx, make([]float64, len(rhs)), rhs, solver.Options{})
	if !errors.Is(err, solver.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCancelled/context.Canceled, got %v", err)
	}
	if st.Iterations != 0 {
		t.Fatalf("cancelled solve reported %d iterations", st.Iterations)
	}
	if _, err := e.ResistanceCoalesced(ctx, snap, 0, 1); !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("resistance on cancelled ctx: want ErrCancelled, got %v", err)
	}
	if _, err := snap.ConditionNumber(ctx, 1); !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("cond on cancelled ctx: want ErrCancelled, got %v", err)
	}
}

// TestSolvePerRequestOptions checks that the unified options reach the
// innermost loop: a one-iteration budget must abort with ErrNoConvergence
// after exactly one outer iteration.
func TestSolvePerRequestOptions(t *testing.T) {
	e := newEngine(t, 12, 12, Options{})
	snap := e.Current()
	rhs := warmRHS(snap.G.NumNodes())
	st, err := snap.SolveInto(context.Background(), make([]float64, len(rhs)), rhs, solver.Options{Tol: 1e-14, MaxIter: 1})
	if !errors.Is(err, solver.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	if st.Iterations != 1 {
		t.Fatalf("MaxIter=1 ran %d iterations", st.Iterations)
	}
}

// TestWorkspacePoolHammer drives concurrent solves against one snapshot
// under -race: every pooled solve state and workspace checkout must be
// exclusively owned while in flight, and every solution must be correct
// (detecting scratch shared across goroutines, which would corrupt
// results long before the race detector fires).
func TestWorkspacePoolHammer(t *testing.T) {
	e := newEngine(t, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rhs := make([]float64, n)
			x := make([]float64, n)
			lx := make([]float64, n)
			for it := 0; it < 25; it++ {
				// Distinct RHS per goroutine+iteration so cross-talk between
				// workspaces shows up as a wrong residual.
				for i := range rhs {
					rhs[i] = math.Sin(float64(i*(id+1) + it))
				}
				vecmath.CenterMean(rhs)
				st, err := snap.SolveInto(ctx, x, rhs, solver.Options{Tol: 1e-8})
				if err != nil || !st.Converged {
					t.Errorf("goroutine %d iter %d: err=%v converged=%v", id, it, err, st.Converged)
					return
				}
				snap.G.LapMul(lx, x)
				vecmath.Sub(lx, lx, rhs)
				if vecmath.Norm2(lx) > 1e-6*vecmath.Norm2(rhs) {
					t.Errorf("goroutine %d iter %d: residual %g — workspace corruption?",
						id, it, vecmath.Norm2(lx))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkSolveWarm reports ns/op and allocs/op for the warm solve path;
// CI's allocation smoke step runs it with -benchmem and the companion
// TestWarmSolveAllocationFree asserts the budget.
func BenchmarkSolveWarm(b *testing.B) {
	e := newEngine(b, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	rhs := warmRHS(n)
	x := make([]float64, n)
	ctx := context.Background()
	opts := solver.Options{Tol: 1e-8}
	if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWarmSELL64 is BenchmarkSolveWarm on a 64x64 grid engine
// frozen as SELL: large enough that the SpMV dominates a solve, so it
// tracks the sliced single-column kernel every direct solve runs.
func BenchmarkSolveWarmSELL64(b *testing.B) {
	e := newEngine(b, 64, 64, Options{Solver: solver.Options{Format: solver.FormatSELL}})
	snap := e.Current()
	n := snap.G.NumNodes()
	rhs := warmRHS(n)
	x := make([]float64, n)
	ctx := context.Background()
	opts := solver.Options{Tol: 1e-8}
	if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.SolveInto(ctx, x, rhs, opts); err != nil {
			b.Fatal(err)
		}
	}
}
