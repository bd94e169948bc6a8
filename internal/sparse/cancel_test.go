package sparse

import (
	"context"
	"errors"
	"testing"

	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// cancellingOperator cancels its context during the apply of iteration
// `at`, simulating a client that disconnects mid-solve.
type cancellingOperator struct {
	inner  Operator
	cancel context.CancelFunc
	at     int
	count  int
}

func (c *cancellingOperator) Dim() int { return c.inner.Dim() }

func (c *cancellingOperator) Apply(dst, x []float64) {
	c.count++
	if c.count == c.at {
		c.cancel()
	}
	c.inner.Apply(dst, x)
}

// slowGrid is a system large and ill-conditioned enough that neither
// solver converges within a couple of iterations.
func slowGrid(t testing.TB) (*ProjectedOperator, []float64) {
	t.Helper()
	g := gridGraph(40, 40)
	b := make([]float64, g.NumNodes())
	vecmath.NewRNG(7).FillNormal(b)
	vecmath.CenterMean(b)
	return &ProjectedOperator{Inner: NewLapOperator(g)}, b
}

func TestCGCancelledBeforeStart(t *testing.T) {
	op, b := slowGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, op.Dim())
	res, err := cg1(ctx, op, x, b, nil, solver.Options{})
	if !errors.Is(err, solver.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCancelled/context.Canceled, got %v", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("pre-cancelled BlockCG ran %d iterations", res.Iterations)
	}
}

// TestCGCancelMidSolve cancels during iteration 3's operator apply; the
// solve must stop within one iteration of the cancellation.
func TestCGCancelMidSolve(t *testing.T) {
	op, b := slowGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Apply #1 is the initial residual; apply #4 lands inside iteration 3.
	co := &cancellingOperator{inner: op, cancel: cancel, at: 4}
	x := make([]float64, op.Dim())
	res, err := cg1(ctx, co, x, b, nil, solver.Options{Tol: 1e-14})
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res.Iterations > 4 {
		t.Fatalf("BlockCG ran %d iterations past a cancel at apply 4", res.Iterations)
	}
	if res.Iterations == 0 {
		t.Fatal("BlockCG should have completed the in-flight iterations before the cancel")
	}
}

func TestJacobiPCGCancel(t *testing.T) {
	g := gridGraph(30, 30)
	b := make([]float64, g.NumNodes())
	vecmath.NewRNG(3).FillNormal(b)
	vecmath.CenterMean(b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, g.NumNodes())
	res, err := jacobiPCG(ctx, NewLapOperator(g), dst, b, solver.Options{Tol: 1e-14})
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("pre-cancelled solve ran %d iterations", res.Iterations)
	}
}
