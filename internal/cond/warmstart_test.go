package cond

import (
	"context"
	"math"
	"testing"
)

// TestWarmStartConverges is the maintenance loop's estimator contract: after
// a cold estimate, re-running on a slightly perturbed pencil seeded with the
// previous Result.Vector must (a) agree with a full-budget cold estimate and
// (b) get there within a small iteration budget — the property that makes a
// periodic 12-iteration drift check affordable.
func TestWarmStartConverges(t *testing.T) {
	g := grid(8, 8)
	h := g.Clone()
	// Thin H: scale alternating edges to distort the pencil away from 1.
	for i := 0; i < h.NumEdges(); i += 3 {
		h.SetWeight(i, h.Edge(i).W*0.25)
	}
	ctx := context.Background()

	cold, err := Estimate(ctx, g, h, Options{Seed: 3, LambdaMaxOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Vector) != g.NumNodes() {
		t.Fatalf("Result.Vector has %d entries, want %d", len(cold.Vector), g.NumNodes())
	}
	var norm float64
	for _, v := range cold.Vector {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-8 {
		t.Fatalf("Result.Vector norm^2 = %v, want 1", norm)
	}

	// Perturb the pencil slightly — what one maintenance interval of churn
	// does — then estimate warm with a tight budget vs cold with a full one.
	h2 := h.Clone()
	for i := 1; i < h2.NumEdges(); i += 7 {
		h2.SetWeight(i, h2.Edge(i).W*1.1)
	}
	full, err := Estimate(ctx, g, h2, Options{Seed: 4, LambdaMaxOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Estimate(ctx, g, h2, Options{
		MaxIters:      12,
		Seed:          4,
		LambdaMaxOnly: true,
		StartVector:   cold.Vector,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(warm.Kappa-full.Kappa) / full.Kappa; rel > 0.02 {
		t.Fatalf("warm kappa %v vs full %v (rel err %v)", warm.Kappa, full.Kappa, rel)
	}
	if warm.ItersMax > 12 {
		t.Fatalf("warm start used %d iterations, budget 12", warm.ItersMax)
	}
}

// TestWarmStartDegenerateFallsBack: a useless start vector (wrong length, or
// one that deflates to nothing) must fall back to the random start rather
// than poisoning the iteration.
func TestWarmStartDegenerateFallsBack(t *testing.T) {
	g := grid(6, 6)
	h := g.Clone()
	for i := 0; i < h.NumEdges(); i += 2 {
		h.SetWeight(i, h.Edge(i).W*0.5)
	}
	ctx := context.Background()
	want, err := Estimate(ctx, g, h, Options{Seed: 9, LambdaMaxOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	// Wrong length: ignored.
	short, err := Estimate(ctx, g, h, Options{Seed: 9, LambdaMaxOnly: true, StartVector: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(short.Kappa-want.Kappa)/want.Kappa > 1e-6 {
		t.Fatalf("short start vector changed the cold path: %v vs %v", short.Kappa, want.Kappa)
	}

	// Constant vector: deflation against ones collapses it to zero, which
	// must fall back to the seeded random start, not divide by zero.
	ones := make([]float64, g.NumNodes())
	for i := range ones {
		ones[i] = 1
	}
	flat, err := Estimate(ctx, g, h, Options{Seed: 9, LambdaMaxOnly: true, StartVector: ones})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(flat.Kappa) || math.IsInf(flat.Kappa, 0) {
		t.Fatalf("degenerate start produced kappa %v", flat.Kappa)
	}
	if math.Abs(flat.Kappa-want.Kappa)/want.Kappa > 1e-6 {
		t.Fatalf("collapsed start vector diverged from cold path: %v vs %v", flat.Kappa, want.Kappa)
	}
}
