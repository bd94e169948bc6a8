package service

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// TestStressConcurrentReadersLiveWriter is the acceptance stress test: 16
// concurrent readers issue solves, resistance queries, condition-number
// checks, and sparsifier exports while a writer streams insert and delete
// batches through the coalescing batcher. It must pass under -race.
//
// Snapshot isolation is checked with weight markers: every insert request
// carries markerEdges edges sharing one unique weight, so any snapshot must
// contain either all of a request's edges or none of them — a partial count
// means a reader observed a half-applied batch.
func TestStressConcurrentReadersLiveWriter(t *testing.T) {
	const (
		rows, cols  = 12, 12
		writes      = 120
		markerEdges = 4
		readers     = 16
	)
	e := newEngine(t, rows, cols, Options{MaxBatch: 32})
	ctx := ctxT(t)
	n := rows * cols

	marker := func(i int) float64 { return 2 + float64(i)*1e-3 }

	writerDone := make(chan struct{})
	var writeFailures atomic.Int64
	var pendings []*Pending
	go func() {
		defer close(writerDone)
		rng := uint64(1)
		next := func(mod int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % mod
		}
		for i := 0; i < writes; i++ {
			edges := make([]graph.Edge, markerEdges)
			for k := range edges {
				u := next(n)
				v := (u + 1 + next(n-1)) % n
				edges[k] = graph.Edge{U: u, V: v, W: marker(i)}
			}
			p, err := e.AddAsync(edges)
			if err != nil {
				writeFailures.Add(1)
				continue
			}
			pendings = append(pendings, p)
			if i%10 == 9 {
				if _, err := p.Wait(ctx); err != nil {
					writeFailures.Add(1)
				}
			}
			time.Sleep(time.Millisecond) // pace the stream so reads interleave
			// Every sixth request, also delete a distinct original grid
			// edge (row i/6, horizontal), exercising the delete path and
			// bridge replacement against live readers.
			if i%6 == 0 {
				r := (i / 6) % rows
				c := (i / 6) % (cols - 1)
				dp, err := e.DeleteAsync([]graph.Edge{{U: r*cols + c, V: r*cols + c + 1}})
				if err != nil {
					writeFailures.Add(1)
				} else {
					pendings = append(pendings, dp)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	var readErrors atomic.Int64
	var isolationViolations atomic.Int64
	var solvesDone atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			b := make([]float64, n)
			for i := range b {
				b[i] = math.Sin(float64(id*31 + i))
			}
			vecmath.CenterMean(b)
			iter := 0
			for {
				// Run at least a few operations even if the writer finishes
				// quickly, then drain until it is done.
				if iter >= 8 {
					select {
					case <-writerDone:
						return
					default:
					}
				}
				iter++
				snap := e.Current()
				switch (id + iter) % 4 {
				case 0, 1:
					x := make([]float64, n)
					st, err := snap.SolveInto(context.Background(), x, b, solver.Options{Tol: 1e-6})
					if err != nil || !st.Converged || st.Generation != snap.Gen {
						readErrors.Add(1)
						return
					}
					solvesDone.Add(1)
				case 2:
					u, v := (id*7+iter)%n, (id*13+iter*3)%n
					res, err := e.ResistanceCoalesced(context.Background(), snap, u, v)
					if err != nil || (u != v && !(res > 0)) || math.IsNaN(res) {
						readErrors.Add(1)
						return
					}
				case 3:
					// Export the sparsifier and audit snapshot isolation:
					// every marker weight must appear 0 or markerEdges times.
					h := snap.ExportSparsifier()
					if err := h.Validate(); err != nil {
						readErrors.Add(1)
						return
					}
					counts := make(map[float64]int)
					for _, edge := range snap.G.All() {
						if edge.W >= 2 {
							counts[edge.W]++
						}
					}
					for w, c := range counts {
						if c != markerEdges {
							t.Errorf("marker %v seen %d times in gen %d, want %d (half-applied batch visible)",
								w, c, snap.Gen, markerEdges)
							isolationViolations.Add(1)
							return
						}
					}
				}
				if id == 0 && iter%64 == 0 {
					if _, err := snap.ConditionNumber(context.Background(), 1); err != nil {
						readErrors.Add(1)
						return
					}
				}
			}
		}(r)
	}

	<-writerDone
	wg.Wait()
	if writeFailures.Load() != 0 {
		t.Fatalf("%d write enqueues failed", writeFailures.Load())
	}
	if readErrors.Load() != 0 {
		t.Fatalf("%d read operations failed", readErrors.Load())
	}
	if isolationViolations.Load() != 0 {
		t.Fatalf("%d snapshot-isolation violations", isolationViolations.Load())
	}
	for _, p := range pendings {
		if _, err := p.Wait(ctx); err != nil {
			t.Fatalf("write failed: %v", err)
		}
	}
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Final state: every insert request fully visible.
	final := e.Current()
	counts := make(map[float64]int)
	for _, edge := range final.G.All() {
		if edge.W >= 2 {
			counts[edge.W]++
		}
	}
	for i := 0; i < writes; i++ {
		if counts[marker(i)] != markerEdges {
			t.Fatalf("final state: marker %d has %d/%d edges", i, counts[marker(i)], markerEdges)
		}
	}

	st := e.Stats()
	if st.Flushes == 0 || st.Flushes >= st.WriteRequests {
		t.Fatalf("coalescing ineffective: %d flushes for %d requests", st.Flushes, st.WriteRequests)
	}
	// Factorizations are bounded by generations, not by solves: the cache
	// must have absorbed the overwhelming majority of solves.
	if st.PrecondBuilds > st.Generation+1 {
		t.Fatalf("%d factorizations for %d generations", st.PrecondBuilds, st.Generation)
	}
	if st.Solves > 0 && st.PrecondReuses == 0 {
		t.Fatalf("no preconditioner reuse across %d solves", st.Solves)
	}

	// Repeated solves on the now-quiescent generation must reuse a single
	// factorization (the acceptance criterion's cache assertion).
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	vecmath.CenterMean(b)
	before := e.Stats()
	const repeats = 10
	for i := 0; i < repeats; i++ {
		if _, err := final.SolveInto(context.Background(), make([]float64, n), b, solver.Options{Tol: 1e-8}); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if builds := after.PrecondBuilds - before.PrecondBuilds; builds > 1 {
		t.Fatalf("%d factorizations for %d repeated solves on one generation", builds, repeats)
	}
	if reuses := after.PrecondReuses - before.PrecondReuses; reuses < repeats-1 {
		t.Fatalf("only %d/%d repeated solves reused the factorization", reuses, repeats)
	}
	t.Logf("stress: %d solves, %d flushes for %d requests, %d generations, %d builds / %d reuses",
		solvesDone.Load(), st.Flushes, st.WriteRequests, st.Generation, after.PrecondBuilds, after.PrecondReuses)
}
