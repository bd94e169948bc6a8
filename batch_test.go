package ingrass

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"ingrass/internal/vecmath"
)

// batchService starts a service on a rows×cols grid with the given batch
// options.
func batchService(t *testing.T, rows, cols int, bo BatchOptions) *Service {
	t.Helper()
	svc, err := NewService(serviceGrid(t, rows, cols), ServiceOptions{
		Options: Options{InitialDensity: 0.1, Seed: 1},
		Batch:   bo,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// rhsColumns builds k distinct mean-zero right-hand sides.
func rhsColumns(n, k, seed int) [][]float64 {
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = math.Sin(float64(i*(j+seed+1) + seed))
		}
		vecmath.CenterMean(bs[j])
	}
	return bs
}

// somePairs returns k distinct-endpoint pairs on n nodes.
func somePairs(n, k int) []Pair {
	ps := make([]Pair, k)
	for j := range ps {
		ps[j] = Pair{U: (7 * j) % n, V: (13*j + 5) % n}
		if ps[j].U == ps[j].V {
			ps[j].V = (ps[j].V + 1) % n
		}
	}
	return ps
}

// metricValue reads one unlabelled series from the service's Prometheus
// exposition.
func metricValue(t *testing.T, svc *Service, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no series %s", name)
	return 0
}

// TestReadPathsMatchSolveInto: every scheduled read path returns exactly
// the bits of a direct Snapshot.SolveInto on the same snapshot with the
// same options, for singles and for batches below, at and past one block.
func TestReadPathsMatchSolveInto(t *testing.T) {
	const maxBlock = 4
	svc := batchService(t, 8, 8, BatchOptions{MaxBlock: maxBlock})
	ctx := context.Background()
	snap := svc.eng.Current()
	n := snap.G.NumNodes()
	var opts SolveOptions
	direct := func(b []float64) []float64 {
		x := make([]float64, n)
		if _, err := snap.SolveInto(ctx, x, b, opts.internal()); err != nil {
			t.Fatal(err)
		}
		return x
	}
	resistance := func(p Pair) float64 {
		b := make([]float64, n)
		vecmath.Basis(b, p.U, p.V)
		x := direct(b)
		return x[p.U] - x[p.V]
	}
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s entry %d: %g != direct %g", what, i, got[i], want[i])
			}
		}
	}

	b := rhsColumns(n, 1, 3)[0]
	x, st, err := svc.Solve(ctx, b, opts)
	if err != nil || st.Generation != snap.Gen {
		t.Fatalf("Solve: err=%v stats=%+v", err, st)
	}
	sameBits("Solve", x, direct(b))
	p := Pair{U: 2, V: 61}
	r, gen, err := svc.EffectiveResistance(ctx, p.U, p.V)
	if err != nil || gen != snap.Gen {
		t.Fatalf("EffectiveResistance: err=%v gen=%d", err, gen)
	}
	if want := resistance(p); math.Float64bits(r) != math.Float64bits(want) {
		t.Fatalf("EffectiveResistance %g != direct %g", r, want)
	}

	for _, k := range []int{1, maxBlock, 2*maxBlock + 3} {
		bs := rhsColumns(n, k, k)
		res, gen, err := svc.SolveBatch(ctx, bs, opts)
		if err != nil || gen != snap.Gen {
			t.Fatalf("k=%d SolveBatch: err=%v gen=%d", k, err, gen)
		}
		for j := range bs {
			if res[j].Err != nil || res[j].Stats.Generation != snap.Gen {
				t.Fatalf("k=%d column %d: err=%v stats=%+v", k, j, res[j].Err, res[j].Stats)
			}
			sameBits("SolveBatch", res[j].X, direct(bs[j]))
		}
		pairs := somePairs(n, k)
		pres, gen, err := svc.EffectiveResistanceBatch(ctx, pairs)
		if err != nil || gen != snap.Gen {
			t.Fatalf("k=%d EffectiveResistanceBatch: err=%v gen=%d", k, err, gen)
		}
		for j, pr := range pres {
			if want := resistance(pairs[j]); pr.Err != nil || math.Float64bits(pr.Resistance) != math.Float64bits(want) {
				t.Fatalf("k=%d pair %d: %g (err %v) != direct %g", k, j, pr.Resistance, pr.Err, want)
			}
		}
	}
}

// TestExplicitBatchFormsFullBlocks: on an idle service a batch of k columns
// runs as exactly ceil(k/MaxBlock) blocked executions, every one full but
// the last, and each resistance query counts once as a query and once as a
// solve.
func TestExplicitBatchFormsFullBlocks(t *testing.T) {
	const maxBlock = 4
	svc := batchService(t, 8, 8, BatchOptions{MaxBlock: maxBlock})
	ctx := context.Background()
	n := svc.NumNodes()
	check := func(what string, k int, run func() error) {
		t.Helper()
		before := svc.Stats()
		fillCount := metricValue(t, svc, "ingrass_batch_block_fill_count")
		fillSum := metricValue(t, svc, "ingrass_batch_block_fill_sum")
		if err := run(); err != nil {
			t.Fatalf("%s k=%d: %v", what, k, err)
		}
		after := svc.Stats()
		groups := uint64((k + maxBlock - 1) / maxBlock)
		if got := after.BatchesFormed - before.BatchesFormed; got != groups {
			t.Errorf("%s k=%d: %d groups formed, want %d", what, k, got, groups)
		}
		if got := metricValue(t, svc, "ingrass_batch_block_fill_count") - fillCount; got != float64(groups) {
			t.Errorf("%s k=%d: %g block-fill samples, want %d", what, k, got, groups)
		}
		if got := metricValue(t, svc, "ingrass_batch_block_fill_sum") - fillSum; got != float64(k) {
			t.Errorf("%s k=%d: block fill sums to %g columns, want %d", what, k, got, k)
		}
		if got := after.Solves - before.Solves; got != uint64(k) {
			t.Errorf("%s k=%d: %d solves counted, want %d", what, k, got, k)
		}
	}
	for _, k := range []int{1, maxBlock, 2*maxBlock + 3} {
		check("SolveBatch", k, func() error {
			_, _, err := svc.SolveBatch(ctx, rhsColumns(n, k, k), SolveOptions{})
			return err
		})
		queries := svc.Stats().ResistanceQueries
		check("EffectiveResistanceBatch", k, func() error {
			_, _, err := svc.EffectiveResistanceBatch(ctx, somePairs(n, k))
			return err
		})
		if got := svc.Stats().ResistanceQueries - queries; got != uint64(k) {
			t.Errorf("k=%d: %d resistance queries counted, want %d", k, got, k)
		}
	}
}

// TestBatchLargerThanQueueCap: a batch needing more admission slots than
// the queue holds streams through block by block instead of deadlocking,
// also while other batches compete for the same slots.
func TestBatchLargerThanQueueCap(t *testing.T) {
	svc := batchService(t, 6, 6, BatchOptions{MaxBlock: 2, QueueCap: 4})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	n := svc.NumNodes()
	errs := make(chan error, 4)
	for c := 0; c < cap(errs); c++ {
		go func(c int) {
			if c%2 == 0 {
				_, _, err := svc.SolveBatch(ctx, rhsColumns(n, 10, c), SolveOptions{})
				errs <- err
				return
			}
			res, _, err := svc.EffectiveResistanceBatch(ctx, somePairs(n, 10))
			for _, r := range res {
				if err == nil && r.Err != nil {
					err = r.Err
				}
			}
			errs <- err
		}(c)
	}
	for c := 0; c < cap(errs); c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if d := svc.Stats().BatchQueueDepth; d != 0 {
		t.Fatalf("queue depth %d after the batches", d)
	}
}

// TestBatchCancellation: a batch whose context expires fails with an error
// matching ErrCancelled and the context's own error, and returns only once
// no executor can still write its buffers: under -race, the writes below
// would be reported against any column still in flight.
func TestBatchCancellation(t *testing.T) {
	svc := batchService(t, 24, 24, BatchOptions{MaxBlock: 2, Workers: 2})
	n := svc.NumNodes()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := svc.SolveBatch(expired, rhsColumns(n, 5, 1), SolveOptions{}); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired SolveBatch: %v, want ErrCancelled and DeadlineExceeded", err)
	}
	if _, _, err := svc.EffectiveResistanceBatch(expired, somePairs(n, 5)); !errors.Is(err, ErrCancelled) {
		t.Fatalf("expired EffectiveResistanceBatch: %v, want ErrCancelled", err)
	}

	// Cancel mid-flight: the batch is far too big to finish first.
	ctx, stop := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		stop()
	}()
	res, _, err := svc.SolveBatch(ctx, rhsColumns(n, 64, 2), SolveOptions{Tol: 1e-12})
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SolveBatch: %v, want ErrCancelled and Canceled", err)
	}
	for _, r := range res {
		for i := range r.X {
			r.X[i] = 0
		}
	}
	if d := svc.Stats().BatchQueueDepth; d != 0 {
		t.Fatalf("queue depth %d after a cancelled batch returned", d)
	}
}

// TestCallsAfterCloseReportErrClosed: after Close every write and every
// scheduled read fails with ErrClosed, while SolveInto and ConditionNumber
// keep serving the last snapshot.
func TestCallsAfterCloseReportErrClosed(t *testing.T) {
	svc := batchService(t, 6, 6, BatchOptions{})
	ctx := context.Background()
	n := svc.NumNodes()
	b := rhsColumns(n, 1, 1)[0]
	svc.Close()

	calls := map[string]func() error{
		"Solve": func() error { _, _, err := svc.Solve(ctx, b, SolveOptions{}); return err },
		"EffectiveResistance": func() error {
			_, _, err := svc.EffectiveResistance(ctx, 0, 5)
			return err
		},
		"EffectiveResistance u==v": func() error {
			_, _, err := svc.EffectiveResistance(ctx, 3, 3)
			return err
		},
		"SolveBatch": func() error { _, _, err := svc.SolveBatch(ctx, [][]float64{b}, SolveOptions{}); return err },
		"EffectiveResistanceBatch": func() error {
			_, _, err := svc.EffectiveResistanceBatch(ctx, []Pair{{U: 0, V: 5}, {U: 3, V: 3}})
			return err
		},
		"AddEdges": func() error { _, err := svc.AddEdges(ctx, []Edge{{U: 0, V: 7, W: 1}}); return err },
		"AddEdgesAsync": func() error {
			_, err := svc.AddEdgesAsync([]Edge{{U: 0, V: 7, W: 1}})
			return err
		},
		"DeleteEdges": func() error { _, err := svc.DeleteEdges(ctx, []Edge{{U: 0, V: 1}}); return err },
		"DeleteEdgesAsync": func() error {
			_, err := svc.DeleteEdgesAsync([]Edge{{U: 0, V: 1}})
			return err
		},
		"Flush":           func() error { return svc.Flush(ctx) },
		"ForceResparsify": func() error { _, err := svc.ForceResparsify(ctx); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}

	x := make([]float64, n)
	if st, err := svc.SolveInto(ctx, x, b, SolveOptions{}); err != nil || !st.Converged {
		t.Fatalf("SolveInto after Close: err=%v stats=%+v", err, st)
	}
	if k, err := svc.ConditionNumber(ctx, 1); err != nil || !(k >= 1) {
		t.Fatalf("ConditionNumber after Close: %g, %v", k, err)
	}
}
