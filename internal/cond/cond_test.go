package cond

import (
	"context"
	"math"
	"testing"

	"ingrass/internal/graph"
)

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

func TestIdenticalGraphsKappaOne(t *testing.T) {
	g := grid(5, 5)
	res, err := Estimate(context.Background(), g, g.Clone(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Kappa-1) > 1e-3 {
		t.Fatalf("kappa(G,G) = %v, want 1", res.Kappa)
	}
}

func TestScaledGraphKappaOne(t *testing.T) {
	// H = 2G pointwise: pencil eigenvalues all 1/2, kappa still 1.
	g := grid(4, 4)
	h := g.Clone()
	for i := range h.All() {
		h.SetWeight(i, h.Edge(i).W*2)
	}
	res, err := Estimate(context.Background(), g, h, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Kappa-1) > 1e-3 {
		t.Fatalf("kappa = %v, want 1", res.Kappa)
	}
	if math.Abs(res.LambdaMax-0.5) > 1e-3 {
		t.Fatalf("lambda_max = %v, want 0.5", res.LambdaMax)
	}
}

func TestEstimateMatchesDenseOracle(t *testing.T) {
	g := grid(4, 5)
	// H: spanning-tree-ish subgraph (drop some edges) keeping connectivity.
	h := graph.New(g.NumNodes(), g.NumEdges())
	uf := graph.NewUnionFind(g.NumNodes())
	for _, e := range g.All() {
		if uf.Union(e.U, e.V) {
			h.AddEdge(e.U, e.V, e.W)
		}
	}
	// Add back a couple of off-tree edges.
	added := 0
	for _, e := range g.All() {
		if added >= 3 {
			break
		}
		if _, ok := h.FindEdge(e.U, e.V); !ok {
			h.AddEdge(e.U, e.V, e.W)
			added++
		}
	}

	vals, err := DensePencil(g, h)
	if err != nil {
		t.Fatal(err)
	}
	wantMin, wantMax := vals[0], vals[len(vals)-1]
	wantKappa := wantMax / wantMin

	res, err := Estimate(context.Background(), g, h, Options{Seed: 3, MaxIters: 200, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Power iteration approaches extremes from inside; 10% agreement is
	// plenty for table-grade estimates.
	if math.Abs(res.Kappa-wantKappa) > 0.1*wantKappa {
		t.Fatalf("kappa estimate %v vs oracle %v", res.Kappa, wantKappa)
	}
	if res.LambdaMax > wantMax*1.001 {
		t.Fatalf("lambda_max %v exceeds oracle %v", res.LambdaMax, wantMax)
	}
	if res.LambdaMin < wantMin*0.999 {
		t.Fatalf("lambda_min %v below oracle %v", res.LambdaMin, wantMin)
	}
}

func TestSubgraphPencilBounds(t *testing.T) {
	// For a subgraph H <= G with identical weights, x'L_Hx <= x'L_Gx, so
	// every pencil eigenvalue >= 1 and lambda_min == 1.
	g := grid(5, 5)
	h := graph.New(g.NumNodes(), 0)
	uf := graph.NewUnionFind(g.NumNodes())
	for _, e := range g.All() {
		if uf.Union(e.U, e.V) {
			h.AddEdge(e.U, e.V, e.W)
		}
	}
	vals, err := DensePencil(g, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v < 1-1e-8 {
			t.Fatalf("pencil eigenvalue %v below 1 for subgraph H", v)
		}
	}
	res, err := Estimate(context.Background(), g, h, Options{Seed: 4, MaxIters: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.LambdaMin < 0.98 || res.LambdaMin > 1.05 {
		t.Fatalf("lambda_min = %v, want ~1", res.LambdaMin)
	}
	if res.Kappa < 1 {
		t.Fatalf("kappa %v < 1", res.Kappa)
	}
}

func TestSparserTreeHasLargerKappa(t *testing.T) {
	// Dropping off-tree edges must increase kappa: the tree alone is a
	// worse approximation than tree + extras.
	g := grid(6, 6)
	tree := graph.New(g.NumNodes(), 0)
	uf := graph.NewUnionFind(g.NumNodes())
	var off []graph.Edge
	for _, e := range g.All() {
		if uf.Union(e.U, e.V) {
			tree.AddEdge(e.U, e.V, e.W)
		} else {
			off = append(off, e)
		}
	}
	richer := tree.Clone()
	for i := 0; i < len(off)/2; i++ {
		richer.AddEdge(off[i].U, off[i].V, off[i].W)
	}
	kTree, err := Estimate(context.Background(), g, tree, Options{Seed: 5, MaxIters: 150})
	if err != nil {
		t.Fatal(err)
	}
	kRich, err := Estimate(context.Background(), g, richer, Options{Seed: 5, MaxIters: 150})
	if err != nil {
		t.Fatal(err)
	}
	if kRich.Kappa >= kTree.Kappa {
		t.Fatalf("adding edges should reduce kappa: tree %v, richer %v", kTree.Kappa, kRich.Kappa)
	}
}

func TestEstimateErrors(t *testing.T) {
	g := grid(3, 3)
	if _, err := Estimate(context.Background(), g, grid(2, 2), Options{}); err == nil {
		t.Fatal("expected node-count mismatch error")
	}
	disconnected := graph.New(9, 1)
	disconnected.AddEdge(0, 1, 1)
	if _, err := Estimate(context.Background(), g, disconnected, Options{}); err == nil {
		t.Fatal("expected disconnected-H error")
	}
	if _, err := Estimate(context.Background(), disconnected, g, Options{}); err == nil {
		t.Fatal("expected disconnected-G error")
	}
}

func TestTinyGraphs(t *testing.T) {
	g := graph.New(1, 0)
	res, err := Estimate(context.Background(), g, g.Clone(), Options{})
	if err != nil || res.Kappa != 1 {
		t.Fatalf("single node: %+v err=%v", res, err)
	}
	g2 := graph.New(2, 1)
	g2.AddEdge(0, 1, 1)
	h2 := graph.New(2, 1)
	h2.AddEdge(0, 1, 4)
	res2, err := Estimate(context.Background(), g2, h2, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Kappa-1) > 1e-6 || math.Abs(res2.LambdaMax-0.25) > 1e-6 {
		t.Fatalf("2-node pencil: %+v", res2)
	}
}

func TestDensePencilIdentity(t *testing.T) {
	g := grid(3, 4)
	vals, err := DensePencil(g, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != g.NumNodes()-1 {
		t.Fatalf("pencil has %d eigenvalues, want %d", len(vals), g.NumNodes()-1)
	}
	for _, v := range vals {
		if math.Abs(v-1) > 1e-8 {
			t.Fatalf("identity pencil eigenvalue %v != 1", v)
		}
	}
}

func TestDensePencilWeightPerturbation(t *testing.T) {
	// Strengthening one H edge by delta shifts some eigenvalue below 1.
	g := grid(3, 3)
	h := g.Clone()
	h.SetWeight(0, h.Edge(0).W*5)
	vals, err := DensePencil(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] >= 1-1e-9 {
		t.Fatalf("expected an eigenvalue below 1, got min %v", vals[0])
	}
	// And kappa > 1.
	if vals[len(vals)-1]/vals[0] <= 1 {
		t.Fatal("kappa must exceed 1 after perturbation")
	}
}
