package graph

import (
	"math"
	"testing"
	"testing/quick"

	"ingrass/internal/vecmath"
)

// triangle returns K3 with unit weights.
func triangle() *Graph {
	g := New(3, 3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	return g
}

// path returns a path graph 0-1-...-(n-1) with the given uniform weight.
func path(n int, w float64) *Graph {
	g := New(n, n-1)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, w)
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4, 0)
	i := g.AddEdge(0, 1, 2.5)
	if i != 0 {
		t.Fatalf("first edge index %d", i)
	}
	if g.NumEdges() != 1 || g.NumNodes() != 4 {
		t.Fatalf("size %v", g)
	}
	if g.TotalWeight() != 2.5 {
		t.Fatalf("total weight %v", g.TotalWeight())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("degree wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		u, v int
		w    float64
	}{
		{"self-loop", 1, 1, 1},
		{"negative weight", 0, 1, -1},
		{"zero weight", 0, 1, 0},
		{"nan weight", 0, 1, math.NaN()},
		{"inf weight", 0, 1, math.Inf(1)},
		{"out of range", 0, 9, 1},
		{"negative node", -1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %s", tc.name)
				}
			}()
			New(3, 0).AddEdge(tc.u, tc.v, tc.w)
		})
	}
}

func TestWeightMutation(t *testing.T) {
	g := triangle()
	g.SetWeight(0, 4)
	if g.Edge(0).W != 4 || g.TotalWeight() != 6 {
		t.Fatalf("after SetWeight: %v total %v", g.Edge(0), g.TotalWeight())
	}
	g.AddWeight(0, 1)
	if g.Edge(0).W != 5 {
		t.Fatalf("after AddWeight: %v", g.Edge(0))
	}
	if !g.SpreadWeight([]int32{0}, 5) || g.Edge(0).W != 10 {
		t.Fatalf("after SpreadWeight: %v", g.Edge(0))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFindEdge(t *testing.T) {
	g := triangle()
	if i, ok := g.FindEdge(2, 0); !ok || i != 2 {
		t.Fatalf("FindEdge(2,0) = %d, %v", i, ok)
	}
	if _, ok := g.FindEdge(0, 0); ok {
		t.Fatal("self pair should not be found")
	}
	g2 := New(5, 0)
	if _, ok := g2.FindEdge(0, 4); ok {
		t.Fatal("edge should not exist")
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("HasEdge failed")
	}
}

func TestEdgeKey(t *testing.T) {
	e1 := Edge{U: 3, V: 7, W: 1}
	e2 := Edge{U: 7, V: 3, W: 2}
	if e1.Key() != e2.Key() {
		t.Fatal("Key must be orientation independent")
	}
	if KeyOf(3, 7) != e1.Key() {
		t.Fatal("KeyOf disagrees with Edge.Key")
	}
	if KeyOf(3, 7) == KeyOf(3, 8) {
		t.Fatal("distinct pairs collide")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := triangle()
	c := g.Clone()
	c.AddEdge(0, 1, 5)
	c.SetWeight(0, 9)
	if g.NumEdges() != 3 || g.Edge(0).W != 1 {
		t.Fatal("clone mutated original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddNode(t *testing.T) {
	g := triangle()
	id := g.AddNode()
	if id != 3 || g.NumNodes() != 4 {
		t.Fatalf("AddNode gave %d", id)
	}
	g.AddEdge(3, 0, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraph(t *testing.T) {
	g := triangle()
	s := g.Subgraph([]int{0, 2})
	if s.NumEdges() != 2 || s.NumNodes() != 3 {
		t.Fatalf("subgraph %v", s)
	}
	if s.Edge(0) != g.Edge(0) || s.Edge(1) != g.Edge(2) {
		t.Fatal("wrong edges kept")
	}
}

func TestCoalesce(t *testing.T) {
	g := New(3, 0)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2) // parallel, reversed orientation
	g.AddEdge(1, 2, 3)
	c := g.Coalesce()
	if c.NumEdges() != 2 {
		t.Fatalf("coalesced edges = %d", c.NumEdges())
	}
	if i, ok := c.FindEdge(0, 1); !ok || c.Edge(i).W != 3 {
		t.Fatalf("merged weight wrong: %v", c.AppendEdges(nil))
	}
	if math.Abs(c.TotalWeight()-g.TotalWeight()) > 1e-12 {
		t.Fatal("coalesce must preserve total weight")
	}
}

func TestQuadraticFormMatchesLapMul(t *testing.T) {
	g := triangle()
	g.SetWeight(1, 2.5)
	x := []float64{1, -2, 0.5}
	// x' L x computed two ways.
	lx := make([]float64, 3)
	g.LapMul(lx, x)
	got := vecmath.Dot(x, lx)
	want := g.QuadraticForm(x)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("x'Lx = %v vs quadratic form %v", got, want)
	}
}

func TestLapMulConstantNullspace(t *testing.T) {
	g := path(10, 2.0)
	ones := make([]float64, 10)
	vecmath.Fill(ones, 3.7)
	dst := make([]float64, 10)
	g.LapMul(dst, ones)
	if vecmath.NormInf(dst) > 1e-12 {
		t.Fatalf("L * const must be 0, got %v", dst)
	}
}

func TestDegreeVector(t *testing.T) {
	g := triangle()
	d := g.DegreeVector()
	for i, v := range d {
		if v != 2 {
			t.Fatalf("degree[%d] = %v", i, v)
		}
	}
	if g.WeightedDegree(0) != 2 {
		t.Fatalf("weighted degree %v", g.WeightedDegree(0))
	}
}

func TestCSRMatchesGraphLapMul(t *testing.T) {
	r := vecmath.NewRNG(4)
	g := New(50, 0)
	for i := 0; i < 200; i++ {
		u := r.Intn(50)
		v := r.Intn(50)
		if u != v {
			g.AddEdge(u, v, r.Range(0.1, 2))
		}
	}
	c := NewCSR(g)
	x := make([]float64, 50)
	r.FillNormal(x)
	want := make([]float64, 50)
	got := make([]float64, 50)
	g.LapMul(want, x)
	c.LapMul(got, x)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("CSR LapMul mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCSRCoalescesParallelEdges(t *testing.T) {
	g := New(2, 0)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 2)
	c := NewCSR(g)
	if c.NNZ() != 2 { // one entry per direction
		t.Fatalf("NNZ = %d, want 2", c.NNZ())
	}
	if c.Weights[0] != 3 {
		t.Fatalf("merged weight %v, want 3", c.Weights[0])
	}
	if c.Degree[0] != 3 || c.Degree[1] != 3 {
		t.Fatalf("degrees %v", c.Degree)
	}
	if ns := c.Neighbors(0); len(ns) != 1 || ns[0] != 1 {
		t.Fatalf("neighbors %v", ns)
	}
	if ws := c.NeighborWeights(0); len(ws) != 1 || ws[0] != 3 {
		t.Fatalf("neighbor weights %v", ws)
	}
}

func TestCSRAdjMul(t *testing.T) {
	g := path(3, 1)
	c := NewCSR(g)
	dst := make([]float64, 3)
	c.AdjMul(dst, []float64{1, 2, 3})
	want := []float64{2, 4, 2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AdjMul = %v", dst)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("count %d", uf.Count())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("unions should succeed")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union should be a no-op")
	}
	if uf.Count() != 3 {
		t.Fatalf("count %d", uf.Count())
	}
	if !uf.Connected(0, 1) || uf.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	uf.Union(1, 3)
	if !uf.Connected(0, 2) {
		t.Fatal("transitivity failed")
	}
}

// Property: after a random sequence of unions, Connected agrees with a
// brute-force labeling.
func TestUnionFindProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := vecmath.NewRNG(seed)
		const n = 30
		uf := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		for k := 0; k < 40; k++ {
			a, b := r.Intn(n), r.Intn(n)
			uf.Union(a, b)
			// Brute-force: relabel.
			la, lb := label[a], label[b]
			if la != lb {
				for i := range label {
					if label[i] == lb {
						label[i] = la
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Connected(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	g := New(6, 0)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	labels, count := Components(g)
	if count != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("count = %d", count)
	}
	if labels[0] != labels[1] || labels[2] != labels[4] || labels[0] == labels[2] || labels[5] == labels[0] {
		t.Fatalf("labels = %v", labels)
	}
	if IsConnected(g) {
		t.Fatal("graph is not connected")
	}
	if !IsConnected(triangle()) {
		t.Fatal("triangle is connected")
	}
	if !IsConnected(New(0, 0)) {
		t.Fatal("empty graph is connected by convention")
	}
}

func TestBFSOrder(t *testing.T) {
	g := path(5, 1)
	order, parent := BFSOrder(g, 2)
	if len(order) != 5 || order[0] != 2 {
		t.Fatalf("order = %v", order)
	}
	if parent[2].To != -1 {
		t.Fatal("root parent sentinel wrong")
	}
	if parent[0].To != 1 || parent[4].To != 3 {
		t.Fatalf("parents = %v", parent)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3, 0)
	g.AddEdge(0, 1, 1)
	order, parent := BFSOrder(g, 0)
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	if parent[2].To != -2 {
		t.Fatal("unreachable sentinel wrong")
	}
}

func TestEccentricity(t *testing.T) {
	g := path(5, 1)
	dist, ecc := EccentricityFrom(g, 0)
	if ecc != 4 || dist[4] != 4 {
		t.Fatalf("ecc = %d dist = %v", ecc, dist)
	}
}

func TestLargestComponent(t *testing.T) {
	g := New(6, 0)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 2)
	sub, remap := LargestComponent(g)
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("largest component %v", sub)
	}
	if remap[0] != -1 || remap[5] != -1 || remap[2] == -1 {
		t.Fatalf("remap = %v", remap)
	}
	// Already-connected graphs round-trip unchanged.
	tri := triangle()
	sub2, remap2 := LargestComponent(tri)
	if sub2.NumEdges() != 3 || remap2[2] != 2 {
		t.Fatal("connected graph should be identity-mapped")
	}
}

func TestSummarize(t *testing.T) {
	g := triangle()
	s := Summarize(g)
	if s.Nodes != 3 || s.Edges != 3 || s.MinDegree != 2 || s.MaxDegree != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Components != 1 || s.MeanDegree != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	if z := Summarize(New(0, 0)); z.Nodes != 0 {
		t.Fatal("empty graph stats")
	}
}

func TestOffTreeDensity(t *testing.T) {
	// N=10 sparsifier with 9 edges is exactly a tree: density 0.
	if d := OffTreeDensity(9, 10, 100); d != 0 {
		t.Fatalf("tree density %v", d)
	}
	if d := OffTreeDensity(19, 10, 100); d != 0.1 {
		t.Fatalf("density %v, want 0.1", d)
	}
	if d := OffTreeDensity(5, 10, 100); d != 0 {
		t.Fatal("sub-tree should clamp at 0")
	}
	if d := OffTreeDensity(10, 10, 0); d != 0 {
		t.Fatal("zero original edges should give 0")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := path(4, 1) // degrees 1,2,2,1
	h := DegreeHistogram(g)
	if len(h) != 2 || h[0] != [2]int{1, 2} || h[1] != [2]int{2, 2} {
		t.Fatalf("histogram = %v", h)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := triangle()
	g.epages[0].e[0].W = -1 // corrupt directly, bypassing SetWeight
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must catch negative weight")
	}
}
