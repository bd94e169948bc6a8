package partition

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/precond"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
)

// twoCliquesBridge builds two k-cliques joined by one weak edge: the
// canonical graph whose optimal bisection is obvious.
func twoCliquesBridge(k int) *graph.Graph {
	g := graph.New(2*k, k*k)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			g.AddEdge(a, b, 5)
			g.AddEdge(k+a, k+b, 5)
		}
	}
	g.AddEdge(0, k, 0.1)
	return g
}

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

func TestFiedlerErrors(t *testing.T) {
	if _, err := Fiedler(context.Background(), graph.New(1, 0), Options{}); err == nil {
		t.Fatal("expected too-small error")
	}
	dis := graph.New(4, 1)
	dis.AddEdge(0, 1, 1)
	if _, err := Fiedler(context.Background(), dis, Options{}); err == nil {
		t.Fatal("expected disconnected error")
	}
}

// TestFiedlerSeparatesCliques runs Fiedler in both regimes of its
// factorization: two 8-cliques factor exactly, while a 70-clique's pivots
// have degree 69, over precond's pivot-degree cap, so those solves are
// Jacobi-PCG.
func TestFiedlerSeparatesCliques(t *testing.T) {
	for _, k := range []int{8, 70} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			g := twoCliquesBridge(k)
			fact, err := precond.Factorize(g, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want := k < 70; fact.Factored() != want {
				t.Fatalf("Factorize(g).Factored() = %v, want %v", fact.Factored(), want)
			}
			f, err := Fiedler(context.Background(), g, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			// All of clique A on one sign, all of clique B on the other.
			signA := f[0] > 0
			for v := 1; v < k; v++ {
				if (f[v] > 0) != signA {
					t.Fatalf("clique A not sign-coherent at node %d", v)
				}
			}
			for v := k; v < 2*k; v++ {
				if (f[v] > 0) == signA {
					t.Fatalf("clique B on the same side at node %d", v)
				}
			}
			// Mean-zero, unit-norm.
			if math.Abs(vecmath.Sum(f)) > 1e-6 {
				t.Fatalf("Fiedler vector not mean-zero: %v", vecmath.Sum(f))
			}
			if math.Abs(vecmath.Norm2(f)-1) > 1e-6 {
				t.Fatalf("Fiedler vector not normalized: %v", vecmath.Norm2(f))
			}
		})
	}
}

func TestBisectCliques(t *testing.T) {
	g := twoCliquesBridge(10)
	b, err := Bisect(context.Background(), g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Sizes[0] != 10 || b.Sizes[1] != 10 {
		t.Fatalf("unbalanced: %v", b.Sizes)
	}
	// The only cut edge should be the bridge.
	if math.Abs(b.CutWeight-0.1) > 1e-9 {
		t.Fatalf("cut weight %v, want 0.1 (bridge only)", b.CutWeight)
	}
	if b.Conductance <= 0 {
		t.Fatal("conductance must be positive")
	}
}

func TestBisectGridBalanced(t *testing.T) {
	g := grid(12, 12)
	b, err := Bisect(context.Background(), g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if b.Sizes[0] != 72 || b.Sizes[1] != 72 {
		t.Fatalf("unbalanced: %v", b.Sizes)
	}
	// A 12x12 grid's balanced spectral cut should be close to a straight
	// line: 12 edges (allow slack for discrete effects).
	if b.CutWeight > 20 {
		t.Fatalf("grid cut weight %v too large", b.CutWeight)
	}
}

func TestBisectWithSparsifierQuality(t *testing.T) {
	// Partitioning through the sparsifier must land within a small factor
	// of the full-graph spectral cut.
	g := grid(14, 14)
	init, err := grass.InitialSparsifier(g, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Bisect(context.Background(), g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	viaH, err := BisectWithSparsifier(context.Background(), g, init.H, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if viaH.Sizes[0] != viaH.Sizes[1] {
		t.Fatalf("sparsifier partition unbalanced: %v", viaH.Sizes)
	}
	if viaH.CutWeight > 3*full.CutWeight+1 {
		t.Fatalf("sparsifier cut %v vs full %v: too much quality loss",
			viaH.CutWeight, full.CutWeight)
	}
}

func TestBisectWithSparsifierErrors(t *testing.T) {
	g := grid(4, 4)
	if _, err := BisectWithSparsifier(context.Background(), g, grid(3, 3), Options{}); err == nil {
		t.Fatal("expected node mismatch error")
	}
}

func TestSplitByVectorEvaluation(t *testing.T) {
	// Path 0-1-2-3 with scores forcing {0,1} vs {2,3}: one cut edge.
	g := graph.New(4, 3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 1)
	b := SplitByVector(g, []float64{-2, -1, 1, 2})
	if b.Side[0] != b.Side[1] || b.Side[2] != b.Side[3] || b.Side[0] == b.Side[2] {
		t.Fatalf("sides %v", b.Side)
	}
	if b.CutWeight != 2 {
		t.Fatalf("cut %v, want 2", b.CutWeight)
	}
	// Conductance = 2 / min(vol) = 2 / 4.
	if math.Abs(b.Conductance-0.5) > 1e-12 {
		t.Fatalf("conductance %v", b.Conductance)
	}
}
