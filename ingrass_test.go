package ingrass

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// paperFig1Graph builds a small mesh-like graph in the spirit of the
// paper's running example (Figs. 1-3): a 4x4 grid with a couple of chords.
func paperFig1Graph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(16)
	id := func(i, j int) int { return i*4 + j }
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if j+1 < 4 {
				if _, err := g.AddEdge(id(i, j), id(i, j+1), 1); err != nil {
					t.Fatal(err)
				}
			}
			if i+1 < 4 {
				if _, err := g.AddEdge(id(i, j), id(i+1, j), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func TestGraphBasicsPublic(t *testing.T) {
	g := NewGraph(3)
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Fatal("fresh graph wrong size")
	}
	if _, err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self-loop must error")
	}
	if _, err := g.AddEdge(0, 5, 1); err == nil {
		t.Fatal("out of range must error")
	}
	if _, err := g.AddEdge(0, 1, -1); err == nil {
		t.Fatal("negative weight must error")
	}
	i, err := g.AddEdge(0, 1, 2.5)
	if err != nil || i != 0 {
		t.Fatalf("AddEdge: %d %v", i, err)
	}
	e, err := g.Edge(0)
	if err != nil || e.W != 2.5 {
		t.Fatalf("Edge: %+v %v", e, err)
	}
	if _, err := g.Edge(5); err == nil {
		t.Fatal("bad index must error")
	}
	if !g.HasEdge(1, 0) || g.Degree(0) != 1 {
		t.Fatal("adjacency wrong")
	}
	if g.TotalWeight() != 2.5 {
		t.Fatal("weight wrong")
	}
	if id := g.AddNode(); id != 3 {
		t.Fatalf("AddNode gave %d", id)
	}
	if g.String() == "" {
		t.Fatal("String empty")
	}
}

func TestGraphIO(t *testing.T) {
	g := paperFig1Graph(t)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed size")
	}
}

func TestQuadraticForm(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	q, err := g.QuadraticForm([]float64{1, 0})
	if err != nil || q != 3 {
		t.Fatalf("q=%v err=%v", q, err)
	}
	if _, err := g.QuadraticForm([]float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestSparsifyPublic(t *testing.T) {
	g, err := Generate("g2_circuit", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Sparsify(g, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsConnected() {
		t.Fatal("sparsifier must be connected")
	}
	if h.NumEdges() >= g.NumEdges() {
		t.Fatal("sparsifier not sparser")
	}
	d := h.OffTreeDensity(g.NumEdges())
	if math.Abs(d-0.1) > 0.02 {
		t.Fatalf("density %v", d)
	}
}

func TestIncrementalLifecycle(t *testing.T) {
	g, err := Generate("fe_4elt2", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	origEdges := g.NumEdges()
	inc, err := NewIncremental(g, Options{InitialDensity: 0.1, TargetCond: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if inc.FilterLevel() < 1 {
		t.Fatal("filter level must be >= 1")
	}
	stream, err := NewEdgeStream(g, 60, 3, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	var total UpdateReport
	for _, batch := range stream {
		rep, err := inc.AddEdges(batch)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Processed != len(batch) {
			t.Fatalf("processed %d of %d", rep.Processed, len(batch))
		}
		if rep.Included+rep.Merged+rep.Redistributed != rep.Processed {
			t.Fatalf("report inconsistent: %+v", rep)
		}
		if len(rep.Actions) != rep.Processed {
			t.Fatal("actions list wrong length")
		}
		total.Included += rep.Included
		total.Merged += rep.Merged
		total.Redistributed += rep.Redistributed
	}
	// G grew by the stream; H grew by at most the included count.
	if inc.Original().NumEdges() != origEdges+60 {
		t.Fatalf("G has %d edges, want %d", inc.Original().NumEdges(), origEdges+60)
	}
	if total.Included == 60 {
		t.Fatal("no filtering happened at all")
	}
	if inc.Density() <= 0 {
		t.Fatal("density must be positive")
	}
	// Resparsify and keep going.
	if err := inc.Resparsify(); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.AddEdges([]Edge{{U: 0, V: g.NumNodes() - 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalRejectsBadEdges(t *testing.T) {
	g := paperFig1Graph(t)
	inc, err := NewIncremental(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.AddEdges([]Edge{{U: 0, V: 0, W: 1}}); err == nil {
		t.Fatal("self-loop must error")
	}
	if _, err := inc.AddEdges([]Edge{{U: 0, V: 99, W: 1}}); err == nil {
		t.Fatal("out-of-range must error")
	}
}

// badWeights are the weights no insertion path may accept: the graph
// readers' rule is positive and finite.
var badWeights = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -1}

// TestIncrementalRejectsNonFiniteWeights: Incremental.AddEdges returns
// ErrInvalidEdge for a weight that is not positive and finite, without
// touching G or H, and the sparsifier keeps accepting valid batches.
func TestIncrementalRejectsNonFiniteWeights(t *testing.T) {
	g := paperFig1Graph(t)
	inc, err := NewIncremental(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gEdges, hEdges := inc.Original().NumEdges(), inc.Sparsifier().NumEdges()
	for _, w := range badWeights {
		// The bad edge rides behind a valid one: the whole batch is refused.
		_, err := inc.AddEdges([]Edge{{U: 0, V: 5, W: 1}, {U: 0, V: 10, W: w}})
		if !errors.Is(err, ErrInvalidEdge) {
			t.Fatalf("weight %v: got %v, want ErrInvalidEdge", w, err)
		}
		if inc.Original().NumEdges() != gEdges || inc.Sparsifier().NumEdges() != hEdges {
			t.Fatalf("weight %v: rejected batch changed the graphs", w)
		}
	}
	if _, err := inc.AddEdges([]Edge{{U: 0, V: 10, W: 2}}); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
}

func TestNewIncrementalWith(t *testing.T) {
	g := paperFig1Graph(t)
	h, err := Sparsify(g, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncrementalWith(g, h, Options{TargetCond: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Sparsifier().NumEdges() != h.NumEdges() {
		t.Fatal("provided sparsifier not adopted")
	}
}

func TestConditionNumberPublic(t *testing.T) {
	g := paperFig1Graph(t)
	k, err := ConditionNumber(g, g.Clone(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1) > 0.01 {
		t.Fatalf("kappa(G,G) = %v", k)
	}
	// Against a spanning tree: strictly worse.
	tree, err := Sparsify(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	kt, err := ConditionNumber(g, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kt <= k {
		t.Fatalf("tree kappa %v should exceed identity %v", kt, k)
	}
}

// Figure 2 semantics: the multilevel embedding assigns every node a
// cluster per level; nodes sharing a cluster at a level have their
// resistance bounded by that cluster's diameter, visible through the
// incremental sparsifier's distortion ordering.
func TestFigure2EmbeddingSemantics(t *testing.T) {
	g, err := Generate("fe_4elt2", 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(g, Options{InitialDensity: 0.1, TargetCond: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A long-range chord should carry at least as much estimated
	// distortion as a short-range one of the same weight, usually more.
	n := g.NumNodes()
	stream := []Edge{
		{U: 0, V: n - 1, W: 1}, // far corner pair
		{U: 0, V: 1, W: 1},     // adjacent-ish pair
	}
	rep, err := inc.AddEdges(stream)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Processed != 2 {
		t.Fatal("both edges must be processed")
	}
}

func TestGenerateAndTestCases(t *testing.T) {
	names := TestCases()
	if len(names) < 10 {
		t.Fatalf("registry too small: %v", names)
	}
	if _, err := Generate("bogus", 1, 1); err == nil {
		t.Fatal("unknown name must error")
	}
	g, err := Generate("delaunay_n14", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("generated graph must be connected")
	}
}

func TestGeneratorFacades(t *testing.T) {
	if _, err := GeneratePowerGrid(8, 8, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateTriMesh(8, 8, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateDelaunay(50, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateBarabasiAlbert(100, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GeneratePowerGrid(1, 1, 0, 1); err == nil {
		t.Fatal("bad dims must error")
	}
}

func TestNewEdgeStreamPublic(t *testing.T) {
	g, err := GeneratePowerGrid(15, 15, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := NewEdgeStream(g, 40, 4, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 4 {
		t.Fatalf("batches %d", len(batches))
	}
	count := 0
	for _, b := range batches {
		count += len(b)
	}
	if count != 40 {
		t.Fatalf("stream size %d", count)
	}
}

func TestUpdateActionString(t *testing.T) {
	if ActionIncluded.String() != "included" ||
		ActionMerged.String() != "merged" ||
		ActionRedistributed.String() != "redistributed" {
		t.Fatal("action names wrong")
	}
	if UpdateAction(7).String() == "" {
		t.Fatal("unknown action must render")
	}
}

// End-to-end: incremental updates keep kappa near the target while staying
// much sparser than including everything (the paper's headline claim, at
// unit-test scale).
func TestEndToEndQualityShape(t *testing.T) {
	g, err := GeneratePowerGrid(14, 14, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(g, Options{InitialDensity: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	h0 := inc.Sparsifier().Clone()
	stream, err := NewEdgeStream(g, 100, 5, false, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream {
		if _, err := inc.AddEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	kUpdated, err := ConditionNumber(inc.Original(), inc.Sparsifier(), 13)
	if err != nil {
		t.Fatal(err)
	}
	kFrozen, err := ConditionNumber(inc.Original(), h0, 13)
	if err != nil {
		t.Fatal(err)
	}
	if kUpdated >= kFrozen {
		t.Fatalf("updates did not improve kappa: %v vs %v", kUpdated, kFrozen)
	}
}
