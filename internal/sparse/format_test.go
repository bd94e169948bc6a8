package sparse

import (
	"context"
	"math"
	"runtime"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

func withMaxProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func frozenOp(g *graph.Graph, f solver.Format, workers int) *LapOperator {
	op := NewLapOperator(g)
	op.SetWorkers(workers)
	op.SetFormat(f)
	return op
}

func firstBitsDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// The tentpole's central property: every frozen configuration — {CSR, SELL}
// layout × {serial, pooled} execution —
// produces Apply and ApplyBlock results bit-identical to the plain serial
// CSR product, per column, at sizes spanning the pool cutover and chunk
// boundary edge cases (4095 leaves a partial tail chunk, 4096 does not).
func TestLapOperatorCrossFormatBitIdentical(t *testing.T) {
	withMaxProcs(t, 4)
	sizes := []int{10, 4095, 4096}
	if !testing.Short() {
		sizes = append(sizes, 100_000)
	}
	widths := []int{1, 2, 3, 7, 16}
	for _, n := range sizes {
		g := randomConnectedGraph(uint64(n), n, 2*n)
		ref := graph.NewCSR(g)

		maxW := widths[len(widths)-1]
		x := make([][]float64, maxW)
		want := make([][]float64, maxW)
		for j := range x {
			x[j] = make([]float64, n)
			vecmath.NewRNG(uint64(1000*n + j)).FillNormal(x[j])
			want[j] = make([]float64, n)
			ref.LapMul(want[j], x[j])
		}
		got := make([]float64, n)
		dst := make([][]float64, maxW)
		for j := range dst {
			dst[j] = make([]float64, n)
		}

		for _, format := range []solver.Format{solver.FormatCSR, solver.FormatSELL} {
			for _, workers := range []int{0, 3} {
				op := frozenOp(g, format, workers)
				if op.Format() != format {
					t.Fatalf("n=%d: forced %v froze as %v", n, format, op.Format())
				}

				op.Apply(got, x[0])
				if i := firstBitsDiff(want[0], got); i >= 0 {
					t.Errorf("n=%d fmt=%v workers=%d: Apply differs from serial CSR at %d",
						n, format, workers, i)
				}
				for _, w := range widths {
					op.ApplyBlock(dst[:w], x[:w])
					for j := 0; j < w; j++ {
						if i := firstBitsDiff(want[j], dst[j]); i >= 0 {
							t.Errorf("n=%d fmt=%v workers=%d width=%d col=%d: ApplyBlock differs at %d",
								n, format, workers, w, j, i)
						}
					}
				}
			}
		}
	}
}

// A full preconditioned solve is a deterministic composition of
// bit-identical SpMVs and vector kernels — so the CSR- and SELL-frozen
// solvers must walk the exact same iterate sequence and land on
// bit-identical solutions.
func TestSolveBitIdenticalAcrossFormats(t *testing.T) {
	withMaxProcs(t, 4)
	n := 2048
	g := randomConnectedGraph(99, n, 3*n)
	b := make([]float64, n)
	vecmath.NewRNG(7).FillNormal(b)
	vecmath.CenterMean(b)

	solve := func(f solver.Format) []float64 {
		x := make([]float64, n)
		if _, err := jacobiPCG(context.Background(), frozenOp(g, f, 3), x, b, solver.Options{Tol: 1e-10}); err != nil {
			t.Fatalf("format %v: %v", f, err)
		}
		return x
	}
	xCSR := solve(solver.FormatCSR)
	xSELL := solve(solver.FormatSELL)
	if i := firstBitsDiff(xCSR, xSELL); i >= 0 {
		t.Errorf("CSR and SELL solves diverge at component %d: %x vs %x",
			i, math.Float64bits(xCSR[i]), math.Float64bits(xSELL[i]))
	}
}

// SetFormat contract: the auto heuristic freezes SELL only for operators
// that are both large enough and low-padding; a SELL freeze lands every
// frozen array in a single contiguous arena block; and SetWorkers/SetFormat
// commute.
func TestSetFormatHeuristicAndArena(t *testing.T) {
	withMaxProcs(t, 4)

	// Small operator: auto keeps CSR no matter how regular the rows are.
	small := randomConnectedGraph(1, sellAutoMinN/2, sellAutoMinN)
	op := frozenOp(small, solver.FormatAuto, 0)
	if op.Format() != solver.FormatCSR {
		t.Errorf("auto froze SELL for n=%d < %d", small.NumNodes(), sellAutoMinN)
	}
	if u, r, bl := op.ArenaStats(); u != 0 || r != 0 || bl != 0 {
		t.Errorf("CSR-frozen operator reports arena stats %d/%d/%d", u, r, bl)
	}

	// Large low-padding operator: auto upgrades to SELL, fully contiguous.
	big := randomConnectedGraph(2, 4*sellAutoMinN, 8*sellAutoMinN)
	op = frozenOp(big, solver.FormatAuto, 3)
	if op.Format() != solver.FormatSELL {
		t.Fatalf("auto kept CSR for n=%d pad=%.3f", big.NumNodes(), op.PaddingRatio())
	}
	used, reserved, blocks := op.ArenaStats()
	if blocks != 1 {
		t.Errorf("SELL freeze spilled across %d arena blocks, want 1", blocks)
	}
	if used == 0 || used > reserved {
		t.Errorf("arena stats used=%d reserved=%d", used, reserved)
	}
	if pr := op.PaddingRatio(); pr < 0 || pr > sellAutoMaxPadding {
		t.Errorf("auto-SELL padding ratio %.3f outside (0, %.2f]", pr, sellAutoMaxPadding)
	}

	// Star graph: one hub row dominates its chunk, the predicted padding
	// blows past the cutoff, and auto stays CSR — but a forced SELL freeze
	// still works and still matches CSR bitwise.
	starG := graph.New(1024, 1023)
	for v := 1; v < 1024; v++ {
		starG.AddEdge(0, v, 1+float64(v)/7)
	}
	op = frozenOp(starG, solver.FormatAuto, 0)
	if op.Format() != solver.FormatCSR {
		t.Errorf("auto froze SELL for star graph with padding %.3f", op.PaddingRatio())
	}
	forced := frozenOp(starG, solver.FormatSELL, 0)
	if forced.Format() != solver.FormatSELL {
		t.Fatal("forced SELL freeze did not take")
	}
	x := make([]float64, 1024)
	vecmath.NewRNG(3).FillNormal(x)
	want := make([]float64, 1024)
	got := make([]float64, 1024)
	graph.NewCSR(starG).LapMul(want, x)
	forced.Apply(got, x)
	if i := firstBitsDiff(want, got); i >= 0 {
		t.Errorf("forced high-padding SELL differs from CSR at %d", i)
	}

	// Order independence: format-then-workers must behave like
	// workers-then-format.
	a := NewLapOperator(big)
	a.SetFormat(solver.FormatSELL)
	a.SetWorkers(3)
	bOp := frozenOp(big, solver.FormatSELL, 3)
	xb := make([]float64, big.NumNodes())
	vecmath.NewRNG(4).FillNormal(xb)
	da := make([]float64, big.NumNodes())
	db := make([]float64, big.NumNodes())
	a.Apply(da, xb)
	bOp.Apply(db, xb)
	if i := firstBitsDiff(da, db); i >= 0 {
		t.Errorf("SetFormat/SetWorkers order changes the product at %d", i)
	}
}
