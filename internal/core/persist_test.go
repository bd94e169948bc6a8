package core

import (
	"math"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// streamEdges generates a deterministic pseudo-random update stream over the
// node set [0, n): mostly new long-range edges with varied weights.
func streamEdges(n, count int, seed uint64) []graph.Edge {
	rng := vecmath.NewRNG(seed)
	out := make([]graph.Edge, 0, count)
	for len(out) < count {
		u := int(rng.Uint64() % uint64(n))
		v := int(rng.Uint64() % uint64(n))
		if u == v {
			continue
		}
		w := 0.25 + 2*rng.Float64()
		out = append(out, graph.Edge{U: u, V: v, W: w})
	}
	return out
}

func graphsBitEqual(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: size mismatch %v vs %v", name, a, b)
	}
	for i := range a.All() {
		ea, eb := a.Edge(i), b.Edge(i)
		if ea.U != eb.U || ea.V != eb.V || math.Float64bits(ea.W) != math.Float64bits(eb.W) {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", name, i, ea, eb)
		}
	}
}

// TestRestoreReplaysIdentically is the core determinism contract behind WAL
// recovery: capture a sparsifier mid-stream, restore it from the captured
// state, feed both the identical remaining stream (insertions and
// deletions), and demand bit-identical graphs, decisions, and counters.
func TestRestoreReplaysIdentically(t *testing.T) {
	_, live := setup(t, 10, 10, 0.1, 50)
	n := live.G.NumNodes()

	// Phase 1: shared prefix, applied to the live engine only.
	prefix := streamEdges(n, 120, 7)
	if _, err := live.UpdateBatch(prefix[:60]); err != nil {
		t.Fatal(err)
	}
	if _, err := live.DeleteEdges([]graph.Edge{prefix[3], prefix[17]}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.UpdateBatch(prefix[60:]); err != nil {
		t.Fatal(err)
	}

	// Capture and restore.
	st := live.PersistentState()
	restored, err := RestoreSparsifier(st)
	if err != nil {
		t.Fatal(err)
	}
	if restored.FilterLevel() != live.FilterLevel() {
		t.Fatalf("filter level %d vs %d", restored.FilterLevel(), live.FilterLevel())
	}
	if restored.Stats() != live.Stats() {
		t.Fatalf("stats diverge at capture: %+v vs %+v", restored.Stats(), live.Stats())
	}
	graphsBitEqual(t, "G at capture", restored.G, live.G)
	graphsBitEqual(t, "H at capture", restored.H, live.H)

	// Phase 2: identical suffix on both engines; every decision must match.
	suffix := streamEdges(n, 150, 99)
	for k := 0; k < len(suffix); k += 30 {
		batch := suffix[k : k+30]
		dLive, err := live.UpdateBatch(append([]graph.Edge(nil), batch...))
		if err != nil {
			t.Fatal(err)
		}
		dRest, err := restored.UpdateBatch(append([]graph.Edge(nil), batch...))
		if err != nil {
			t.Fatal(err)
		}
		if len(dLive) != len(dRest) {
			t.Fatalf("batch %d: decision counts %d vs %d", k, len(dLive), len(dRest))
		}
		for i := range dLive {
			a, b := dLive[i], dRest[i]
			if a.Edge != b.Edge || a.Action != b.Action || a.Target != b.Target ||
				math.Float64bits(a.Distortion) != math.Float64bits(b.Distortion) {
				t.Fatalf("batch %d decision %d: %+v vs %+v", k, i, a, b)
			}
		}
		// Interleave a deletion every other batch.
		if (k/30)%2 == 0 {
			del := []graph.Edge{batch[1]}
			rLive, errLive := live.DeleteEdges(del)
			rRest, errRest := restored.DeleteEdges(del)
			if (errLive == nil) != (errRest == nil) {
				t.Fatalf("batch %d delete: err %v vs %v", k, errLive, errRest)
			}
			if errLive == nil {
				for i := range rLive {
					if rLive[i] != rRest[i] {
						t.Fatalf("batch %d delete result %d: %+v vs %+v", k, i, rLive[i], rRest[i])
					}
				}
			}
		}
	}

	if live.Stats() != restored.Stats() {
		t.Fatalf("final stats diverge: %+v vs %+v", live.Stats(), restored.Stats())
	}
	graphsBitEqual(t, "final G", restored.G, live.G)
	graphsBitEqual(t, "final H", restored.H, live.H)
}

// TestRestoreAfterResparsify checks that the replay basis follows a
// Resparsify: the rebuilt decomposition's input graph becomes the new HBase.
func TestRestoreAfterResparsify(t *testing.T) {
	_, live := setup(t, 8, 8, 0.1, 50)
	n := live.G.NumNodes()
	if _, err := live.UpdateBatch(streamEdges(n, 80, 3)); err != nil {
		t.Fatal(err)
	}
	if err := live.Resparsify(); err != nil {
		t.Fatal(err)
	}
	st := live.PersistentState()
	if st.HBase.NumEdges() != live.H.NumEdges() {
		t.Fatalf("HBase has %d edges, H has %d right after resparsify",
			st.HBase.NumEdges(), live.H.NumEdges())
	}
	restored, err := RestoreSparsifier(st)
	if err != nil {
		t.Fatal(err)
	}
	batch := streamEdges(n, 40, 5)
	dLive, err := live.UpdateBatch(append([]graph.Edge(nil), batch...))
	if err != nil {
		t.Fatal(err)
	}
	dRest, err := restored.UpdateBatch(append([]graph.Edge(nil), batch...))
	if err != nil {
		t.Fatal(err)
	}
	for i := range dLive {
		if dLive[i] != dRest[i] {
			t.Fatalf("decision %d: %+v vs %+v", i, dLive[i], dRest[i])
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	_, live := setup(t, 6, 6, 0.1, 50)
	good := live.PersistentState()

	bad := good
	bad.G = nil
	if _, err := RestoreSparsifier(bad); err == nil {
		t.Fatal("want error on nil G")
	}

	bad = good
	bad.HBase = graph.New(good.G.NumNodes()+1, 0)
	if _, err := RestoreSparsifier(bad); err == nil {
		t.Fatal("want error on node-count mismatch")
	}

	bad = good
	bad.FilterLevel = 0
	if _, err := RestoreSparsifier(bad); err == nil {
		t.Fatal("want error on filter level 0")
	}

	// A level inside the hierarchy that setup would not pick.
	bad = good
	bad.FilterLevel = good.FilterLevel%(live.Decomposition().Levels-1) + 1
	if bad.FilterLevel == good.FilterLevel {
		t.Fatalf("hierarchy of %d levels has no second filter level", live.Decomposition().Levels)
	}
	if _, err := RestoreSparsifier(bad); err == nil {
		t.Fatalf("want error on filter level %d, setup picks %d", bad.FilterLevel, good.FilterLevel)
	}
}

// TestRestoreSingleNode round-trips a one-node sparsifier. Its hierarchy
// has one level and no level 1, yet setup indexes filter level 1, and
// restore must accept the level setup picks.
func TestRestoreSingleNode(t *testing.T) {
	live, err := NewSparsifier(graph.New(1, 0), graph.New(1, 0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if live.Decomposition().Levels != 1 || live.FilterLevel() != 1 {
		t.Fatalf("one node: %d levels, filter level %d", live.Decomposition().Levels, live.FilterLevel())
	}
	restored, err := RestoreSparsifier(live.PersistentState())
	if err != nil {
		t.Fatal(err)
	}
	if restored.FilterLevel() != live.FilterLevel() || restored.Stats() != live.Stats() {
		t.Fatalf("restored filter level %d, stats %+v; live %d, %+v",
			restored.FilterLevel(), restored.Stats(), live.FilterLevel(), live.Stats())
	}
	graphsBitEqual(t, "G", restored.G, live.G)
	graphsBitEqual(t, "H", restored.H, live.H)

	bad := live.PersistentState()
	bad.FilterLevel = 2
	if _, err := RestoreSparsifier(bad); err == nil {
		t.Fatal("want error on filter level 2 for a one-node basis")
	}
}
