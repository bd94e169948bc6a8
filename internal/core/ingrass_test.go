package core

import (
	"context"
	"math"
	"testing"

	"ingrass/internal/cond"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/vecmath"
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

// setup builds (G, H(0), Sparsifier) for a grid.
func setup(t *testing.T, rows, cols int, density, targetCond float64) (*graph.Graph, *Sparsifier) {
	t.Helper()
	g := grid(rows, cols)
	init, err := grass.InitialSparsifier(g, density, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparsifier(g, init.H, Config{
		TargetCond: targetCond,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

func TestSetupBasics(t *testing.T) {
	g, s := setup(t, 8, 8, 0.1, 50)
	if s.G != g {
		t.Fatal("G not retained")
	}
	if s.FilterLevel() < 1 || s.FilterLevel() >= s.Decomposition().Levels {
		t.Fatalf("filter level %d out of range", s.FilterLevel())
	}
	if s.Density() <= 0 {
		t.Fatalf("density %v", s.Density())
	}
}

func TestNewSparsifierErrors(t *testing.T) {
	g := grid(3, 3)
	if _, err := NewSparsifier(g, grid(2, 2), Config{}); err == nil {
		t.Fatal("expected node mismatch error")
	}
	if _, err := NewSparsifier(graph.New(0, 0), graph.New(0, 0), Config{}); err == nil {
		t.Fatal("expected empty graph error")
	}
}

func TestUpdateBatchValidation(t *testing.T) {
	_, s := setup(t, 5, 5, 0.1, 50)
	bad := [][]graph.Edge{
		{{U: 0, V: 0, W: 1}},
		{{U: -1, V: 3, W: 1}},
		{{U: 0, V: 99, W: 1}},
		{{U: 0, V: 1, W: 0}},
		{{U: 0, V: 1, W: -2}},
	}
	for i, b := range bad {
		if _, err := s.UpdateBatch(b); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	// No mutation happened.
	if s.Stats().Processed != 0 {
		t.Fatal("failed batch must not mutate state")
	}
}

// The three filtering outcomes of Fig. 3: include (unique), merge
// (redundant inter-cluster), redistribute (intra-cluster).
func TestFigure3FilteringSemantics(t *testing.T) {
	g, s := setup(t, 8, 8, 0.12, 30)
	L := s.FilterLevel()
	d := s.Decomposition()

	// Find an intra-cluster pair (same cluster at L, no existing G edge).
	intraP, intraQ := -1, -1
	for p := 0; p < g.NumNodes() && intraP < 0; p++ {
		for q := p + 1; q < g.NumNodes(); q++ {
			if d.ClusterID(L, p) == d.ClusterID(L, q) && !g.HasEdge(p, q) {
				intraP, intraQ = p, q
				break
			}
		}
	}
	// Find a connected inter-cluster pair: take an existing H edge crossing
	// clusters and pick nearby non-adjacent nodes in the same two clusters.
	mergeP, mergeQ := -1, -1
	for _, e := range s.H.All() {
		cu, cv := d.ClusterID(L, e.U), d.ClusterID(L, e.V)
		if cu == cv {
			continue
		}
		// Another node pair spanning the same cluster pair.
		for p := 0; p < g.NumNodes() && mergeP < 0; p++ {
			if d.ClusterID(L, p) != cu {
				continue
			}
			for q := 0; q < g.NumNodes(); q++ {
				if d.ClusterID(L, q) == cv && !g.HasEdge(p, q) && p != q {
					mergeP, mergeQ = p, q
					break
				}
			}
		}
		if mergeP >= 0 {
			break
		}
	}

	if intraP < 0 || mergeP < 0 {
		t.Skip("grid clustering did not expose both scenarios at this seed")
	}

	hEdgesBefore := s.H.NumEdges()
	hWeightBefore := s.H.TotalWeight()
	decs, err := s.UpdateBatch([]graph.Edge{
		{U: intraP, V: intraQ, W: 0.5},
		{U: mergeP, V: mergeQ, W: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawRedistribute, sawMerge bool
	for _, dec := range decs {
		switch dec.Action {
		case Redistributed:
			sawRedistribute = true
			if dec.Target != -1 {
				t.Fatal("redistributed decision should have no target edge")
			}
		case Merged:
			sawMerge = true
			if dec.Target < 0 || dec.Target >= s.H.NumEdges() {
				t.Fatalf("merge target %d invalid", dec.Target)
			}
		}
	}
	if !sawRedistribute || !sawMerge {
		t.Fatalf("expected redistribute+merge, got %+v", decs)
	}
	// Neither action adds edges to H; both conserve total weight exactly.
	if s.H.NumEdges() != hEdgesBefore {
		t.Fatalf("H gained edges: %d -> %d", hEdgesBefore, s.H.NumEdges())
	}
	if math.Abs(s.H.TotalWeight()-(hWeightBefore+0.5+0.7)) > 1e-9 {
		t.Fatalf("weight not conserved: %v -> %v", hWeightBefore, s.H.TotalWeight())
	}
	// G received both edges regardless.
	if !g.HasEdge(intraP, intraQ) || !g.HasEdge(mergeP, mergeQ) {
		t.Fatal("new edges missing from G")
	}
}

func TestUniqueEdgeIncluded(t *testing.T) {
	g, s := setup(t, 10, 10, 0.08, 20)
	d := s.Decomposition()
	L := s.FilterLevel()

	// Find a cluster pair not connected in H.
	p, q := -1, -1
	for a := 0; a < g.NumNodes() && p < 0; a += 3 {
		for b := a + 1; b < g.NumNodes(); b += 3 {
			if d.ClusterID(L, a) != d.ClusterID(L, b) && len(s.sk.PairEdges(a, b)) == 0 && !g.HasEdge(a, b) {
				p, q = a, b
				break
			}
		}
	}
	if p < 0 {
		t.Skip("no unconnected cluster pair at this seed")
	}
	before := s.H.NumEdges()
	decs, err := s.UpdateBatch([]graph.Edge{{U: p, V: q, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if decs[0].Action != Included {
		t.Fatalf("expected inclusion, got %v", decs[0].Action)
	}
	if s.H.NumEdges() != before+1 {
		t.Fatal("H edge count unchanged after inclusion")
	}
	// Second identical edge must now be merged (cluster pair connected).
	decs2, err := s.UpdateBatch([]graph.Edge{{U: p, V: q, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if decs2[0].Action != Merged {
		t.Fatalf("repeat edge should merge, got %v", decs2[0].Action)
	}
	if s.H.NumEdges() != before+1 {
		t.Fatal("merge must not add edges")
	}
}

func TestBatchSortedByDistortion(t *testing.T) {
	_, s := setup(t, 8, 8, 0.1, 40)
	batch := []graph.Edge{
		{U: 0, V: 1, W: 0.001}, // tiny distortion (adjacent, light)
		{U: 0, V: 63, W: 5},    // big distortion (far, heavy)
		{U: 0, V: 7, W: 1},
	}
	decs, err := s.UpdateBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(decs); i++ {
		if decs[i].Distortion > decs[i-1].Distortion+1e-12 {
			t.Fatalf("decisions not distortion-sorted: %v", decs)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	g, s := setup(t, 8, 8, 0.1, 40)
	r := vecmath.NewRNG(3)
	var batch []graph.Edge
	for len(batch) < 30 {
		u, v := r.Intn(g.NumNodes()), r.Intn(g.NumNodes())
		if u != v && !g.HasEdge(u, v) {
			batch = append(batch, graph.Edge{U: u, V: v, W: r.Range(0.5, 2)})
		}
	}
	decs, err := s.UpdateBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Processed != 30 {
		t.Fatalf("processed %d", st.Processed)
	}
	if st.Included+st.Merged+st.Redistributed != 30 {
		t.Fatalf("stats don't add up: %+v", st)
	}
	if len(decs) != 30 {
		t.Fatalf("decisions %d", len(decs))
	}
}

// End-to-end quality: after a stream of updates, inGRASS's H must track G's
// condition number far better than ignoring the updates, with far fewer
// edges than including everything.
func TestIncrementalQuality(t *testing.T) {
	g := grid(12, 12)
	init, err := grass.InitialSparsifier(g, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	kappa0, err := cond.Estimate(context.Background(), g, init.H, cond.Options{Seed: 4, MaxIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	frozen := init.H.Clone() // sparsifier left un-updated

	s, err := NewSparsifier(g, init.H, Config{
		TargetCond: kappa0.Kappa,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stream: random long-range chords.
	r := vecmath.NewRNG(6)
	var stream []graph.Edge
	for len(stream) < 80 {
		u, v := r.Intn(g.NumNodes()), r.Intn(g.NumNodes())
		if u != v && !g.HasEdge(u, v) {
			stream = append(stream, graph.Edge{U: u, V: v, W: r.Range(0.5, 3)})
		}
	}
	for i := 0; i < len(stream); i += 20 {
		end := i + 20
		if end > len(stream) {
			end = len(stream)
		}
		if _, err := s.UpdateBatch(stream[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	kappaUpdated, err := cond.Estimate(context.Background(), s.G, s.H, cond.Options{Seed: 7, MaxIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	kappaFrozen, err := cond.Estimate(context.Background(), s.G, frozen, cond.Options{Seed: 7, MaxIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	if kappaUpdated.Kappa >= kappaFrozen.Kappa {
		t.Fatalf("updates did not help: updated %v vs frozen %v", kappaUpdated.Kappa, kappaFrozen.Kappa)
	}
	// And H stayed sparse: not every stream edge was included.
	if st := s.Stats(); st.Included == st.Processed {
		t.Fatal("filter admitted every edge; no sparsification happening")
	}
}

func TestResparsify(t *testing.T) {
	g, s := setup(t, 8, 8, 0.1, 40)
	r := vecmath.NewRNG(8)
	var batch []graph.Edge
	for len(batch) < 20 {
		u, v := r.Intn(g.NumNodes()), r.Intn(g.NumNodes())
		if u != v && !g.HasEdge(u, v) {
			batch = append(batch, graph.Edge{U: u, V: v, W: 1})
		}
	}
	if _, err := s.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	statsBefore := s.Stats()
	if err := s.Resparsify(); err != nil {
		t.Fatal(err)
	}
	if s.Stats() != statsBefore {
		t.Fatal("rebuild must preserve counters")
	}
	// Updates keep working after a rebuild.
	if _, err := s.UpdateBatch([]graph.Edge{{U: 0, V: 62, W: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestActionString(t *testing.T) {
	if Included.String() != "included" || Merged.String() != "merged" ||
		Redistributed.String() != "redistributed" {
		t.Fatal("action names wrong")
	}
	if Action(9).String() == "" {
		t.Fatal("unknown action should still render")
	}
}

func TestDisconnectedInitialSparsifierPairIncluded(t *testing.T) {
	// H(0) disconnected: a new edge bridging components has infinite
	// distortion bound and must be included.
	g := graph.New(6, 8)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	h := g.Clone()
	s, err := NewSparsifier(g, h, Config{TargetCond: 10, LRD: lrd.Config{Krylov: krylov.Config{Seed: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	decs, err := s.UpdateBatch([]graph.Edge{{U: 2, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if decs[0].Action != Included {
		t.Fatalf("bridge edge must be included, got %v", decs[0].Action)
	}
	if math.IsInf(decs[0].Distortion, 1) == false {
		t.Fatalf("bridge distortion should be +Inf, got %v", decs[0].Distortion)
	}
}
