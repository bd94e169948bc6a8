package krylov

import (
	"context"
	"math"
	"sort"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New(n, n-1)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func gridGraph(r, c int) *graph.Graph {
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

func TestEmbeddingBasicInvariants(t *testing.T) {
	g := gridGraph(8, 8)
	emb, err := NewEmbedding(g, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if emb.N != 64 || emb.Dims <= 0 {
		t.Fatalf("embedding shape N=%d dims=%d", emb.N, emb.Dims)
	}
	// Symmetry, identity, positivity.
	for _, pq := range [][2]int{{0, 63}, {5, 40}, {10, 11}} {
		p, q := pq[0], pq[1]
		a := emb.Resistance(p, q)
		b := emb.Resistance(q, p)
		if a != b {
			t.Fatalf("asymmetric estimate R(%d,%d)", p, q)
		}
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("bad estimate %v", a)
		}
	}
	if emb.Resistance(7, 7) != 0 {
		t.Fatal("self resistance must be 0")
	}
}

func TestEmbeddingDeterministic(t *testing.T) {
	g := gridGraph(6, 6)
	a, err := NewEmbedding(g, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEmbedding(g, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 36; v++ {
		ca, cb := a.Coord(v), b.Coord(v)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatal("same seed must give identical embeddings")
			}
		}
	}
}

func TestEmbeddingEmptyGraph(t *testing.T) {
	if _, err := NewEmbedding(graph.New(0, 0), Config{}); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

// The estimator's job is RANKING edges by resistance, not absolute accuracy.
// On a path graph the true resistance between i and j is |i-j|; check that
// the estimated values are strongly rank-correlated with distance.
func TestEmbeddingRankingOnPath(t *testing.T) {
	const n = 64
	g := pathGraph(n)
	emb, err := NewEmbedding(g, Config{Seed: 3, Order: 24})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		est  float64
		dist int
	}
	var ps []pair
	for d := 1; d < n; d += 4 {
		ps = append(ps, pair{est: emb.Resistance(0, d), dist: d})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].est < ps[j].est })
	// After sorting by estimate, distances should be mostly increasing:
	// count inversions.
	inv := 0
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if ps[i].dist > ps[j].dist {
				inv++
			}
		}
	}
	total := len(ps) * (len(ps) - 1) / 2
	if float64(inv) > 0.2*float64(total) {
		t.Fatalf("rank inversions %d/%d too high", inv, total)
	}
}

// On a small graph, compare against the exact resistance from the dense
// pseudo-inverse: estimates should be within a generous multiplicative band
// (they are subspace truncations, hence biased low).
func TestEmbeddingVsExactBand(t *testing.T) {
	g := gridGraph(5, 5)
	emb, err := NewEmbedding(g, Config{Seed: 5, Order: 20, Starts: 3})
	if err != nil {
		t.Fatal(err)
	}
	lap := sparse.DenseLaplacian(g)
	b := make([]float64, 25)
	r := vecmath.NewRNG(1)
	var ratioSum float64
	count := 0
	for trial := 0; trial < 20; trial++ {
		p, q := r.Intn(25), r.Intn(25)
		if p == q {
			continue
		}
		vecmath.Basis(b, p, q)
		x, err := vecmath.PseudoInverseApply(lap, b)
		if err != nil {
			t.Fatal(err)
		}
		exact := x[p] - x[q]
		est := emb.Resistance(p, q)
		ratio := est / exact
		if ratio > 1.5 {
			t.Fatalf("estimate %v exceeds exact %v by too much", est, exact)
		}
		ratioSum += ratio
		count++
	}
	if mean := ratioSum / float64(count); mean < 0.2 {
		t.Fatalf("estimates far too small on average: mean ratio %v", mean)
	}
}

func TestEstimateEdgesMatchesScalar(t *testing.T) {
	g := gridGraph(10, 10)
	emb, err := NewEmbedding(g, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.AppendEdges(nil)
	serial := emb.EstimateEdges(g, 1)
	parallel := emb.EstimateEdges(g, 4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel estimate differs at %d", i)
		}
		if want := emb.Resistance(edges[i].U, edges[i].V); serial[i] != want {
			t.Fatalf("batch estimate differs from scalar at %d", i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(1 << 20)
	if c.Order < 8 || c.Order > 32 {
		t.Fatalf("default order %d out of range", c.Order)
	}
	if c.Starts != 2 || c.Workers <= 0 {
		t.Fatalf("defaults %+v", c)
	}
	c2 := Config{Order: 12, Starts: 5, Workers: 3}.withDefaults(100)
	if c2.Order != 12 || c2.Starts != 5 || c2.Workers != 3 {
		t.Fatalf("explicit config overridden: %+v", c2)
	}
}

func TestLanczosOnLaplacian(t *testing.T) {
	g := gridGraph(6, 6)
	op := sparse.NewLapOperator(g)
	res, err := Lanczos(context.Background(), &sparse.ProjectedOperator{Inner: op}, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.ExtremeRitz()
	// Exact spectrum from the dense oracle.
	dense := sparse.DenseLaplacian(g)
	vals, _, err := vecmath.SymEig(dense)
	if err != nil {
		t.Fatal(err)
	}
	lambda2 := vals[1]    // first non-zero
	lambdaMax := vals[35] // largest
	if hi > lambdaMax*1.0001 {
		t.Fatalf("Ritz max %v exceeds lambda_max %v", hi, lambdaMax)
	}
	if hi < 0.9*lambdaMax {
		t.Fatalf("Ritz max %v too far below lambda_max %v", hi, lambdaMax)
	}
	// Restricted to 1-perp, the smallest eigenvalue is lambda2; Lanczos
	// should land within a modest factor after 30 full-reorth steps.
	if lo < lambda2*0.99 {
		t.Fatalf("Ritz min %v below lambda_2 %v", lo, lambda2)
	}
	if lo > 3*lambda2 {
		t.Fatalf("Ritz min %v too far above lambda_2 %v", lo, lambda2)
	}
}

func TestLanczosErrors(t *testing.T) {
	g := pathGraph(4)
	op := sparse.NewLapOperator(g)
	if _, err := Lanczos(context.Background(), op, 0, 1); err == nil {
		t.Fatal("expected error for zero order")
	}
	// Order larger than dimension is clamped, not an error.
	if _, err := Lanczos(context.Background(), &sparse.ProjectedOperator{Inner: op}, 50, 1); err != nil {
		t.Fatal(err)
	}
}
