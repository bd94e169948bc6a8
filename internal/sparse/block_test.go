package sparse

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// blockRHS builds w mean-zero right-hand sides for an n-node Laplacian.
func blockRHS(n, w int, seed uint64) [][]float64 {
	rng := vecmath.NewRNG(seed)
	bs := make([][]float64, w)
	for j := range bs {
		bs[j] = make([]float64, n)
		rng.FillNormal(bs[j])
		vecmath.CenterMean(bs[j])
	}
	return bs
}

func zeroBlock(n, w int) [][]float64 {
	xs := make([][]float64, w)
	for j := range xs {
		xs[j] = make([]float64, n)
	}
	return xs
}

// bitsEqual reports exact bitwise equality of two vectors.
func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// cg1 runs a width-1 BlockCG of a x = b and returns the column's stats
// with the error a single right-hand-side caller sees: the structural or
// whole-block error if any, else the column's own.
func cg1(ctx context.Context, a Operator, x, b []float64, pre BlockPreconditioner, opts solver.Options) (CGResult, error) {
	out := make([]ColumnResult, 1)
	err := BlockCG(ctx, a, BlockSpec{X: [][]float64{x}, B: [][]float64{b}, Out: out}, pre, nil, nil, opts)
	if err == nil {
		err = out[0].Err
	}
	return out[0].CGResult, err
}

// TestBlockCGWidthOneBitIdentical is the one-path acceptance property:
// column j of a width-w block must be bit-for-bit the solve a width-1 block
// of b[j] produces — same iterate, same iteration count, same residual,
// same outcome. The graphs straddle the pooled-SpMV cutover (the 80x80 grid
// is above it), so with workers > 1 the width-1 pooled LapMul route is
// checked against the pooled multi-column kernel.
func TestBlockCGWidthOneBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const w = 5
	for gi, g := range []*graph.Graph{randomConnectedGraph(1, 60, 90), randomConnectedGraph(2, 60, 90), gridGraph(80, 80)} {
		n := g.NumNodes()
		for _, workers := range []int{1, 4} {
			op := NewLapOperator(g)
			op.SetWorkers(workers)
			proj := &ProjectedOperator{Inner: op}
			for _, usePre := range []bool{false, true} {
				var pre BlockPreconditioner
				if usePre {
					pre = op.Jacobi()
				}
				opts := solver.Options{Tol: 1e-9}
				bs := blockRHS(n, w, uint64(gi+1))
				xs := zeroBlock(n, w)
				out := make([]ColumnResult, w)
				if err := BlockCG(context.Background(), proj, BlockSpec{X: xs, B: bs, Out: out}, pre, nil, nil, opts); err != nil {
					t.Fatalf("graph %d workers %d pre %v: block solve: %v", gi, workers, usePre, err)
				}
				for j := 0; j < w; j++ {
					solo := make([]float64, n)
					res, err := cg1(context.Background(), proj, solo, bs[j], pre, opts)
					if !bitsEqual(solo, xs[j]) {
						t.Fatalf("graph %d workers %d pre %v column %d: iterate differs from width-1 solve", gi, workers, usePre, j)
					}
					cr := out[j]
					if cr.Iterations != res.Iterations || cr.Converged != res.Converged ||
						math.Float64bits(cr.Residual) != math.Float64bits(res.Residual) {
						t.Fatalf("graph %d workers %d pre %v column %d: stats differ: width-1 %+v err=%v, block %+v",
							gi, workers, usePre, j, res, err, cr)
					}
					if (err == nil) != (cr.Err == nil) {
						t.Fatalf("graph %d workers %d pre %v column %d: error mismatch: width-1 %v, block %v",
							gi, workers, usePre, j, err, cr.Err)
					}
				}
			}
		}
	}
}

// TestBlockCGMaskedMatchesIndependent is the masking property: columns of a
// blocked solve with per-column convergence masking must match independent
// width-1 solves within tolerance. (The lockstep recurrences are
// mathematically independent, so in practice they agree bit-for-bit; the
// tolerance guards the property, not the implementation.)
func TestBlockCGMaskedMatchesIndependent(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := randomConnectedGraph(seed+20, 80, 140)
		n := g.NumNodes()
		op := NewLapOperator(g)
		proj := &ProjectedOperator{Inner: op}
		const w = 5
		// Structurally different columns (random, localized basis pairs,
		// smooth ramp) converge at different iterations, exercising the
		// masking/compaction path.
		bs := blockRHS(n, w, seed)
		vecmath.Basis(bs[1], 0, n-1)
		vecmath.Basis(bs[2], 1, n/2)
		for i := range bs[3] {
			bs[3][i] = float64(i)
		}
		vecmath.CenterMean(bs[3])
		opts := solver.Options{Tol: 1e-8}

		xs := zeroBlock(n, w)
		out := make([]ColumnResult, w)
		if err := BlockCG(context.Background(), proj, BlockSpec{X: xs, B: bs, Out: out}, op.Jacobi(), nil, nil, opts); err != nil {
			t.Fatalf("seed %d: BlockCG: %v", seed, err)
		}
		iters := make(map[int]bool)
		for j := 0; j < w; j++ {
			if !out[j].Converged {
				t.Fatalf("seed %d column %d did not converge: %+v", seed, j, out[j])
			}
			iters[out[j].Iterations] = true

			solo := make([]float64, n)
			res, err := cg1(context.Background(), proj, solo, bs[j], op.Jacobi(), opts)
			if err != nil {
				t.Fatalf("seed %d column %d solo: %v", seed, j, err)
			}
			if res.Iterations != out[j].Iterations {
				t.Errorf("seed %d column %d: %d block iterations vs %d solo", seed, j, out[j].Iterations, res.Iterations)
			}
			num, den := 0.0, vecmath.Norm2(solo)
			for i := range solo {
				d := solo[i] - xs[j][i]
				num += d * d
			}
			if den > 0 && math.Sqrt(num)/den > 1e-10 {
				t.Errorf("seed %d column %d: blocked solution deviates %g from independent solve",
					seed, j, math.Sqrt(num)/den)
			}
		}
		if len(iters) < 2 {
			t.Fatalf("seed %d: columns all converged at the same iteration (%v); masking untested", seed, iters)
		}
	}
}

// TestBlockCGColumnCancellation: a cancelled per-column context masks that
// column (recorded as cancelled) without disturbing the others; a cancelled
// group context aborts every remaining column.
func TestBlockCGColumnCancellation(t *testing.T) {
	g := gridGraph(12, 12)
	n := g.NumNodes()
	op := NewLapOperator(g)
	proj := &ProjectedOperator{Inner: op}
	const w = 3
	bs := blockRHS(n, w, 7)
	xs := zeroBlock(n, w)
	out := make([]ColumnResult, w)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	colCtx := []context.Context{nil, cancelled, nil}
	if err := BlockCG(context.Background(), proj, BlockSpec{X: xs, B: bs, ColCtx: colCtx, Out: out}, op.Jacobi(), nil, nil, solver.Options{Tol: 1e-8}); err != nil {
		t.Fatalf("BlockCG: %v", err)
	}
	if !errors.Is(out[1].Err, solver.ErrCancelled) {
		t.Fatalf("cancelled column: want ErrCancelled, got %v", out[1].Err)
	}
	for _, j := range []int{0, 2} {
		if out[j].Err != nil || !out[j].Converged {
			t.Fatalf("column %d disturbed by neighbor cancellation: %+v", j, out[j])
		}
	}

	// Whole-group cancellation.
	xs2 := zeroBlock(n, w)
	out2 := make([]ColumnResult, w)
	err := BlockCG(cancelled, proj, BlockSpec{X: xs2, B: bs, Out: out2}, op.Jacobi(), nil, nil, solver.Options{})
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("group cancellation: want ErrCancelled, got %v", err)
	}
	for j := range out2 {
		if !errors.Is(out2[j].Err, solver.ErrCancelled) {
			t.Fatalf("column %d: want ErrCancelled, got %v", j, out2[j].Err)
		}
	}
}

// TestBlockCGZeroAndEmpty covers degenerate inputs: an empty block is a
// no-op and a zero rhs column converges immediately to zero.
func TestBlockCGZeroAndEmpty(t *testing.T) {
	g := gridGraph(6, 6)
	op := NewLapOperator(g)
	proj := &ProjectedOperator{Inner: op}
	if err := BlockCG(context.Background(), proj, BlockSpec{}, nil, nil, nil, solver.Options{}); err != nil {
		t.Fatalf("empty block: %v", err)
	}
	n := g.NumNodes()
	bs := [][]float64{make([]float64, n), blockRHS(n, 1, 3)[0]}
	xs := zeroBlock(n, 2)
	vecmath.Fill(xs[0], 42) // must be overwritten with zeros
	out := make([]ColumnResult, 2)
	if err := BlockCG(context.Background(), proj, BlockSpec{X: xs, B: bs, Out: out}, nil, nil, nil, solver.Options{}); err != nil {
		t.Fatal(err)
	}
	if !out[0].Converged || vecmath.Norm2(xs[0]) != 0 {
		t.Fatalf("zero rhs column: %+v, |x| = %g", out[0], vecmath.Norm2(xs[0]))
	}
	if !out[1].Converged {
		t.Fatalf("nonzero column: %+v", out[1])
	}
}

// TestBlockCGWidthOverflow: a block wider than MaxBlockWidth is rejected
// with a structural error, not a panic.
func TestBlockCGWidthOverflow(t *testing.T) {
	g := gridGraph(4, 4)
	op := NewLapOperator(g)
	n := g.NumNodes()
	w := MaxBlockWidth + 1
	xs, bs := zeroBlock(n, w), blockRHS(n, w, 1)
	out := make([]ColumnResult, w)
	if err := BlockCG(context.Background(), op, BlockSpec{X: xs, B: bs, Out: out}, nil, nil, nil, solver.Options{}); err == nil {
		t.Fatal("want width-overflow error")
	}
}

// TestBlockSolversRejectMisSizedWorkspace: a caller-supplied workspace whose
// vectors are not the operator's dimension is a structural ErrDimension,
// not a panic inside the SpMV.
func TestBlockSolversRejectMisSizedWorkspace(t *testing.T) {
	g := gridGraph(5, 5)
	proj := &ProjectedOperator{Inner: NewLapOperator(g)}
	n := g.NumNodes()
	out := make([]ColumnResult, 1)
	spec := BlockSpec{X: zeroBlock(n, 1), B: blockRHS(n, 1, 2), Out: out}
	err := BlockCG(context.Background(), proj, spec, nil, solver.NewWorkspace(n-3), nil, solver.Options{})
	if !errors.Is(err, ErrDimension) {
		t.Fatalf("mis-sized workspace: want ErrDimension, got %v", err)
	}
}
