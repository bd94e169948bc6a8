package service

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ingrass/internal/batch"
	"ingrass/internal/graph"
	"ingrass/internal/obs"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// blockRHS builds w distinct mean-zero right-hand sides.
func blockRHS(n, w int, seed int) [][]float64 {
	bs := make([][]float64, w)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = math.Sin(float64(i*(j+seed+1) + seed))
		}
		vecmath.CenterMean(bs[j])
	}
	return bs
}

// TestSolveBlockIntoMatchesSolveInto: every column of a snapshot's blocked
// solve must be bit-identical to an independent SolveInto against the same
// snapshot — coalescing must never change an answer.
func TestSolveBlockIntoMatchesSolveInto(t *testing.T) {
	e := newEngine(t, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	const w = 4
	bs := blockRHS(n, w, 1)
	xs := blockRHS(n, w, 9) // nonzero garbage; must be overwritten
	out := make([]sparse.ColumnResult, w)
	ctx := context.Background()
	opts := solver.Options{Tol: 1e-8}
	bst, err := snap.SolveBlockInto(ctx, xs, bs, out, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bst.Generation != snap.Gen || bst.InnerUses == 0 {
		t.Fatalf("block stats: %+v", bst)
	}
	for j := 0; j < w; j++ {
		if out[j].Err != nil || !out[j].Converged {
			t.Fatalf("column %d: %+v", j, out[j])
		}
		solo := make([]float64, n)
		st, err := snap.SolveInto(ctx, solo, bs[j], opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Iterations != out[j].Iterations {
			t.Errorf("column %d: %d blocked vs %d solo iterations", j, out[j].Iterations, st.Iterations)
		}
		for i := range solo {
			if math.Float64bits(solo[i]) != math.Float64bits(xs[j][i]) {
				t.Fatalf("column %d entry %d: blocked %g != solo %g", j, i, xs[j][i], solo[i])
			}
		}
	}
}

// TestSolveMetricsPerPath: a direct SolveInto is one solve and one
// solve-duration sample but never a blocked execution; a width-w
// SolveBlockInto is w solves, w solve-duration samples, and exactly one
// blocked execution — the single path being a width-1 block must not leak
// into the block-duration histogram.
func TestSolveMetricsPerPath(t *testing.T) {
	e := newEngine(t, 12, 12, Options{Obs: obs.NewRegistry()})
	snap := e.Current()
	n := snap.G.NumNodes()
	ctx := context.Background()
	counts := func() (solves, solveDur, blockDur uint64) {
		return e.stats.solves.Load(), e.stats.solveDur.Count(), e.stats.blockDur.Count()
	}
	bs := blockRHS(n, 3, 4)
	x := make([]float64, n)
	for j := 0; j < 2; j++ {
		if _, err := snap.SolveInto(ctx, x, bs[j], solver.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if s, d, b := counts(); s != 2 || d != 2 || b != 0 {
		t.Fatalf("after 2 direct solves: solves=%d solve_duration=%d block_duration=%d, want 2/2/0", s, d, b)
	}
	out := make([]sparse.ColumnResult, 3)
	if _, err := snap.SolveBlockInto(ctx, zeroCols(n, 3), bs, out, nil, solver.Options{}); err != nil {
		t.Fatal(err)
	}
	if s, d, b := counts(); s != 5 || d != 5 || b != 1 {
		t.Fatalf("after a width-3 block: solves=%d solve_duration=%d block_duration=%d, want 5/5/1", s, d, b)
	}
}

func zeroCols(n, w int) [][]float64 {
	xs := make([][]float64, w)
	for j := range xs {
		xs[j] = make([]float64, n)
	}
	return xs
}

// TestWarmSolveAllocationFreeBlocked is the blocked counterpart of the
// warm-solve allocation gate: once the factorization, the pooled blocked
// solve state, and the workspaces are warm, a width-4 SolveBlockInto must
// not allocate.
func TestWarmSolveAllocationFreeBlocked(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	e := newEngine(t, 16, 16, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	const w = 4
	bs := blockRHS(n, w, 1)
	xs := blockRHS(n, w, 5)
	out := make([]sparse.ColumnResult, w)
	ctx := context.Background()
	opts := solver.Options{Tol: 1e-8}
	for i := 0; i < 3; i++ {
		if _, err := snap.SolveBlockInto(ctx, xs, bs, out, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := snap.SolveBlockInto(ctx, xs, bs, out, nil, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.0 {
		t.Fatalf("warm blocked SolveBlockInto allocates %.2f objects/op, want ~0", allocs)
	}
}

// executorGate parks a one-worker scheduler's executor in its first group,
// so requests submitted meanwhile queue behind it and run as one group.
type executorGate struct {
	parked, open chan struct{}
	once         sync.Once
}

// newGatedEngine builds an engine whose scheduler has one executor, and
// occupies it with a plug resistance query; it returns once the executor
// is parked in the plug's group.
func newGatedEngine(t *testing.T, rows, cols, maxBlock int) (*Engine, *executorGate) {
	t.Helper()
	g := &executorGate{parked: make(chan struct{}), open: make(chan struct{})}
	var first sync.Once
	e := newEngine(t, rows, cols, Options{Batch: batch.Options{MaxBlock: maxBlock, Workers: 1, OnGroup: func(int) {
		first.Do(func() { close(g.parked); <-g.open })
	}}})
	t.Cleanup(g.release) // before e.Close, which waits for the executor
	go e.ResistanceCoalesced(context.Background(), e.Current(), 0, 1)
	<-g.parked
	return e, g
}

// releaseWhenQueued waits until n requests are queued behind the plug,
// then lets the executor go.
func (g *executorGate) releaseWhenQueued(e *Engine, n int64) {
	for e.Stats().BatchQueueDepth < n {
		runtime.Gosched()
	}
	g.release()
}

func (g *executorGate) release() { g.once.Do(func() { close(g.open) }) }

// TestSolveCoalescedGroupsRequests: concurrent same-generation solves
// through the scheduler must coalesce into shared blocked groups, answer
// identically to direct solves, and show up in the scheduler counters.
func TestSolveCoalescedGroupsRequests(t *testing.T) {
	e, gate := newGatedEngine(t, 16, 16, 8)
	snap := e.Current()
	n := snap.G.NumNodes()
	const clients = 8
	bs := blockRHS(n, clients, 2)
	xs := make([][]float64, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	stats := make([]SolveStats, clients)
	for c := 0; c < clients; c++ {
		xs[c] = make([]float64, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c], errs[c] = e.SolveCoalesced(context.Background(), snap, xs[c], bs[c], solver.Options{})
		}(c)
	}
	gate.releaseWhenQueued(e, clients)
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil || !stats[c].Converged {
			t.Fatalf("client %d: err=%v stats=%+v", c, errs[c], stats[c])
		}
		if stats[c].Generation != snap.Gen {
			t.Fatalf("client %d served by generation %d, submitted against %d", c, stats[c].Generation, snap.Gen)
		}
		solo := make([]float64, n)
		if _, err := snap.SolveInto(context.Background(), solo, bs[c], solver.Options{}); err != nil {
			t.Fatal(err)
		}
		for i := range solo {
			if math.Float64bits(solo[i]) != math.Float64bits(xs[c][i]) {
				t.Fatalf("client %d: coalesced answer differs from direct solve", c)
			}
		}
	}
	v := e.Stats()
	if v.BatchesFormed != 2 || v.RequestsCoalesced != clients || v.AvgBlockFill != 4.5 {
		t.Fatalf("plug + 8 queued solves: %d batches, %d coalesced, fill %.2f; want 2, 8, 4.5",
			v.BatchesFormed, v.RequestsCoalesced, v.AvgBlockFill)
	}
}

// TestResistanceCoalescedMatchesDirect: scheduled resistance queries mix
// into blocked groups and agree with the direct path.
func TestResistanceCoalescedMatchesDirect(t *testing.T) {
	e, gate := newGatedEngine(t, 12, 12, 8)
	snap := e.Current()
	ctx := context.Background()
	pairs := [][2]int{{0, 5}, {1, 77}, {3, 140}, {9, 9}, {140, 3}}
	var wg sync.WaitGroup
	got := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, u, v int) {
			defer wg.Done()
			got[i], errs[i] = e.ResistanceCoalesced(ctx, snap, u, v)
		}(i, p[0], p[1])
	}
	gate.releaseWhenQueued(e, int64(len(pairs)-1)) // u==v answers without queueing
	wg.Wait()
	if v := e.Stats(); v.BatchesFormed != 2 || v.RequestsCoalesced != 4 {
		t.Fatalf("plug + 4 queued pairs: %d batches, %d coalesced; want 2 and 4", v.BatchesFormed, v.RequestsCoalesced)
	}
	for i, p := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %v: %v", p, errs[i])
		}
		want := directResistance(t, snap, p[0], p[1])
		if math.Abs(got[i]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("pair %v: coalesced %g vs direct %g", p, got[i], want)
		}
	}
	if got[3] != 0 {
		t.Fatalf("u==v resistance = %g, want 0", got[3])
	}
	// Symmetry through the batched path.
	if math.Abs(got[2]-got[4]) > 1e-9 {
		t.Fatalf("resistance not symmetric through batching: %g vs %g", got[2], got[4])
	}
}

// directResistance is x[u] - x[v] for x = L_G^+ (e_u - e_v), from a direct
// SolveInto on snap.
func directResistance(t *testing.T, snap *Snapshot, u, v int) float64 {
	t.Helper()
	n := snap.G.NumNodes()
	b, x := make([]float64, n), make([]float64, n)
	if u != v {
		vecmath.Basis(b, u, v)
	}
	if _, err := snap.SolveInto(context.Background(), x, b, solver.Options{}); err != nil {
		t.Fatal(err)
	}
	return x[u] - x[v]
}

// TestCoalescedCancellationMasksColumn: cancelling one request of a group
// must not disturb its groupmates.
func TestCoalescedCancellationMasksColumn(t *testing.T) {
	e, gate := newGatedEngine(t, 16, 16, 4)
	snap := e.Current()
	n := snap.G.NumNodes()
	bs := blockRHS(n, 2, 3)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var wg sync.WaitGroup
	var okErr, badErr error
	var okStats SolveStats
	x0, x1 := make([]float64, n), make([]float64, n)
	wg.Add(2)
	go func() {
		defer wg.Done()
		okStats, okErr = e.SolveCoalesced(context.Background(), snap, x0, bs[0], solver.Options{})
	}()
	go func() {
		defer wg.Done()
		_, badErr = e.SolveCoalesced(cancelled, snap, x1, bs[1], solver.Options{})
	}()
	gate.releaseWhenQueued(e, 2)
	wg.Wait()
	if okErr != nil || !okStats.Converged {
		t.Fatalf("healthy groupmate: err=%v stats=%+v", okErr, okStats)
	}
	if badErr == nil {
		t.Fatal("cancelled request returned nil error")
	}
	if v := e.Stats(); v.BatchesFormed != 2 || v.RequestsCoalesced != 2 {
		t.Fatalf("healthy and cancelled requests did not share a group: %+v", v)
	}
}

// TestSchedulerHammer is the -race stress: 16 goroutines mixing coalesced
// singles, explicit blocked solves, and coalesced resistance queries while
// a writer streams edge insertions underneath, bumping generations. Every
// result is verified against the exact snapshot the request was submitted
// with, which catches any group spanning a generation bump.
func TestSchedulerHammer(t *testing.T) {
	e := newEngine(t, 16, 16, Options{
		MaxBatch: 4,
		Batch:    batch.Options{MaxBlock: 4},
	})
	n := e.Current().G.NumNodes()
	ctx := context.Background()

	stop := make(chan struct{})
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		rng := vecmath.NewRNG(99)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := int(rng.Uint64() % uint64(n))
			v := int(rng.Uint64() % uint64(n))
			if u == v {
				continue
			}
			if _, err := e.Add(ctx, []graph.Edge{{U: u, V: v, W: 1 + float64(i%7)}}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var gens atomic.Int64
	verify := func(id, it int, snap *Snapshot, x, b []float64) {
		lx := make([]float64, n)
		snap.G.LapMul(lx, x)
		vecmath.Sub(lx, lx, b)
		if vecmath.Norm2(lx) > 1e-5*vecmath.Norm2(b) {
			t.Errorf("goroutine %d iter %d gen %d: residual %g against submitted snapshot — group spanned generations?",
				id, it, snap.Gen, vecmath.Norm2(lx))
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			firstGen := e.Current().Gen
			for it := 0; it < 12; it++ {
				snap := e.Current()
				if snap.Gen != firstGen {
					gens.Add(1)
				}
				switch it % 3 {
				case 0: // coalesced single
					b := blockRHS(n, 1, id*100+it)[0]
					x := make([]float64, n)
					st, err := e.SolveCoalesced(ctx, snap, x, b, solver.Options{})
					if err != nil || !st.Converged {
						t.Errorf("goroutine %d iter %d: coalesced err=%v st=%+v", id, it, err, st)
						return
					}
					if st.Generation != snap.Gen {
						t.Errorf("goroutine %d iter %d: served by gen %d, submitted gen %d", id, it, st.Generation, snap.Gen)
						return
					}
					verify(id, it, snap, x, b)
				case 1: // explicit blocked batch
					const w = 3
					bs := blockRHS(n, w, id*100+it)
					reqs := make([]*batch.Req, w)
					for j := range reqs {
						reqs[j] = &batch.Req{Kind: batch.KindSolve, X: make([]float64, n), B: bs[j]}
					}
					if err := e.RunBatch(ctx, snap, reqs); err != nil {
						t.Errorf("goroutine %d iter %d: batch err=%v", id, it, err)
						return
					}
					for j, r := range reqs {
						if r.Err != nil || r.Gen() != snap.Gen {
							t.Errorf("goroutine %d iter %d col %d: err=%v gen %d", id, it, j, r.Err, r.Gen())
							return
						}
						verify(id, it, snap, r.X, bs[j])
					}
				case 2: // coalesced resistance
					u, v := (id*7+it)%n, (id*13+it*3+1)%n
					if u == v {
						continue
					}
					res, err := e.ResistanceCoalesced(ctx, snap, u, v)
					if err != nil {
						t.Errorf("goroutine %d iter %d: resistance err=%v", id, it, err)
						return
					}
					if res <= 0 {
						t.Errorf("goroutine %d iter %d: resistance %g <= 0", id, it, res)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writerDone.Wait()
	if gens.Load() == 0 {
		t.Log("warning: no generation bumps observed during hammer (writer too slow?)")
	}
	v := e.Stats()
	if v.BatchesFormed == 0 {
		t.Fatal("hammer formed no batches")
	}
	if v.BatchQueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", v.BatchQueueDepth)
	}
}

// TestCoalescedAfterClose: submissions after Close fail cleanly.
func TestCoalescedAfterClose(t *testing.T) {
	e := newEngine(t, 8, 8, Options{})
	snap := e.Current()
	n := snap.G.NumNodes()
	e.Close()
	b := blockRHS(n, 1, 1)[0]
	if _, err := e.SolveCoalesced(context.Background(), snap, make([]float64, n), b, solver.Options{}); err == nil {
		t.Fatal("solve through closed engine succeeded")
	}
}
