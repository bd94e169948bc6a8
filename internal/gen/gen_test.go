package gen

import (
	"math"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

func TestPowerGridBasics(t *testing.T) {
	g, err := PowerGrid(20, 30, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 600 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
	if !graph.IsConnected(g) {
		t.Fatal("power grid must be connected")
	}
	// Base grid edges plus vias.
	base := 20*29 + 19*30
	if g.NumEdges() < base {
		t.Fatalf("edges %d below base grid %d", g.NumEdges(), base)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerGridErrors(t *testing.T) {
	if _, err := PowerGrid(1, 5, 0, 1); err == nil {
		t.Fatal("expected size error")
	}
}

func TestPowerGridDeterminism(t *testing.T) {
	a, _ := PowerGrid(10, 10, 0.1, 7)
	b, _ := PowerGrid(10, 10, 0.1, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed gave different graphs")
	}
	for i := range a.All() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatal("same seed gave different edges")
		}
	}
}

func TestTriMesh(t *testing.T) {
	g, err := TriMesh(15, 20, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 300 || !graph.IsConnected(g) {
		t.Fatalf("trimesh %v connected=%v", g, graph.IsConnected(g))
	}
	// Each cell contributes a diagonal: edges = h + v + cells.
	want := 15*19 + 14*20 + 14*19
	if g.NumEdges() != want {
		t.Fatalf("edges %d want %d", g.NumEdges(), want)
	}
	if _, err := TriMesh(1, 2, 1, 0); err == nil {
		t.Fatal("expected size error")
	}
}

func TestSphereMesh(t *testing.T) {
	g, err := SphereMesh(10, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2+9*12 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
	if !graph.IsConnected(g) {
		t.Fatal("sphere must be connected")
	}
	if _, err := SphereMesh(2, 5, 0); err == nil {
		t.Fatal("expected size error")
	}
}

func TestDelaunaySmallBruteForce(t *testing.T) {
	// Verify the empty-circumcircle property by brute force on a small
	// instance: no input point strictly inside any triangle's circumcircle.
	const n = 60
	r := vecmath.NewRNG(11)
	px := make([]float64, n)
	py := make([]float64, n)
	for i := range px {
		px[i] = r.Float64()
		py[i] = r.Float64()
	}
	tris, err := triangulate(px, py, vecmath.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range tris {
		a, b, c := tr[0], tr[1], tr[2]
		// Ensure CCW before testing.
		if orient2d(px[a], py[a], px[b], py[b], px[c], py[c]) <= 0 {
			t.Fatalf("triangle %v not CCW", tr)
		}
		for p := 0; p < n; p++ {
			if p == a || p == b || p == c {
				continue
			}
			if inCircumcircle(px[a], py[a], px[b], py[b], px[c], py[c], px[p]-1e-12, py[p]) &&
				inCircumcircle(px[a], py[a], px[b], py[b], px[c], py[c], px[p]+1e-12, py[p]) {
				t.Fatalf("point %d strictly inside circumcircle of %v", p, tr)
			}
		}
	}
}

func TestDelaunayGraphProperties(t *testing.T) {
	g, err := Delaunay(500, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
	if !graph.IsConnected(g) {
		t.Fatal("Delaunay triangulation must be connected")
	}
	// Planar: |E| <= 3n - 6; triangulation of points in general position
	// is close to that bound.
	if g.NumEdges() > 3*500-6 {
		t.Fatalf("edges %d violate planarity", g.NumEdges())
	}
	if g.NumEdges() < 2*500 {
		t.Fatalf("edges %d suspiciously few for a triangulation", g.NumEdges())
	}
	if _, err := Delaunay(2, 0); err == nil {
		t.Fatal("expected n >= 3 error")
	}
}

func TestDelaunayDeterminism(t *testing.T) {
	a, err := Delaunay(300, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Delaunay(300, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed gave different triangulations")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(500, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 || !graph.IsConnected(g) {
		t.Fatal("BA graph must span and connect")
	}
	// Power-law-ish: max degree much larger than median.
	s := graph.Summarize(g)
	if s.MaxDegree < 5*3 {
		t.Fatalf("max degree %d too small for preferential attachment", s.MaxDegree)
	}
	if _, err := BarabasiAlbert(5, 5, 0); err == nil {
		t.Fatal("expected m < n error")
	}
	if _, err := BarabasiAlbert(1, 1, 0); err == nil {
		t.Fatal("expected n error")
	}
}

func TestRandomGeometric(t *testing.T) {
	g, err := RandomGeometric(800, 0.08, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(g) {
		t.Fatal("largest component must be connected")
	}
	if g.NumNodes() < 400 {
		t.Fatalf("largest component suspiciously small: %d", g.NumNodes())
	}
	if _, err := RandomGeometric(1, 0.1, 0); err == nil {
		t.Fatal("expected n error")
	}
	if _, err := RandomGeometric(10, 0, 0); err == nil {
		t.Fatal("expected radius error")
	}
}

func TestStreamUniform(t *testing.T) {
	g, err := PowerGrid(20, 20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := Stream(g, StreamConfig{Kind: StreamUniform, Count: 100, Batches: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 10 {
		t.Fatalf("batches %d", len(batches))
	}
	seen := map[uint64]bool{}
	total := 0
	for _, b := range batches {
		for _, e := range b {
			total++
			if e.U == e.V {
				t.Fatal("self loop in stream")
			}
			if g.HasEdge(e.U, e.V) {
				t.Fatal("stream pair already adjacent")
			}
			k := graph.KeyOf(e.U, e.V)
			if seen[k] {
				t.Fatal("duplicate pair in stream")
			}
			seen[k] = true
			meanW := g.TotalWeight() / float64(g.NumEdges())
			if e.W < 0.5*meanW || e.W >= 2.0*meanW {
				t.Fatalf("weight %v outside default range around mean %v", e.W, meanW)
			}
		}
	}
	if total != 100 {
		t.Fatalf("total %d", total)
	}
}

func TestStreamLocalStaysLocal(t *testing.T) {
	g, err := PowerGrid(30, 30, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := Stream(g, StreamConfig{Kind: StreamLocal, Count: 50, Batches: 5, HopRadius: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, e := range b {
			// On a grid, hop distance >= Manhattan distance.
			ui, uj := e.U/30, e.U%30
			vi, vj := e.V/30, e.V%30
			manhattan := math.Abs(float64(ui-vi)) + math.Abs(float64(uj-vj))
			if manhattan > 3 {
				t.Fatalf("local stream pair %d-%d at distance %v", e.U, e.V, manhattan)
			}
		}
	}
}

func TestStreamErrors(t *testing.T) {
	g, _ := PowerGrid(3, 3, 0, 1)
	if _, err := Stream(g, StreamConfig{Count: 0}); err == nil {
		t.Fatal("expected count error")
	}
	tiny := graph.New(2, 1)
	tiny.AddEdge(0, 1, 1)
	if _, err := Stream(tiny, StreamConfig{Count: 1}); err == nil {
		t.Fatal("expected size error")
	}
	// Requesting more fresh pairs than exist must fail, not loop.
	k4 := graph.New(4, 6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4.AddEdge(i, j, 1)
		}
	}
	if _, err := Stream(k4, StreamConfig{Count: 5}); err == nil {
		t.Fatal("expected exhaustion error on complete graph")
	}
}

func TestRegistryAllBuildable(t *testing.T) {
	for _, tc := range Registry() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			g, err := tc.Build(0.01, 1) // 1% scale: tiny but structural
			if err != nil {
				t.Fatal(err)
			}
			if g.NumNodes() < 10 {
				t.Fatalf("%s too small: %d nodes", tc.Name, g.NumNodes())
			}
			if !graph.IsConnected(g) {
				t.Fatalf("%s disconnected at small scale", tc.Name)
			}
			if tc.Family == "" {
				t.Fatal("missing family")
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("g2_circuit"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Fatal("expected unknown-name error")
	}
}
