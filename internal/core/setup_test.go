package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/sketch"
	"ingrass/internal/vecmath"
)

// applyStream drives a sparsifier through a deterministic add/delete stream
// in fixed-size batches, deleting one earlier stream edge every fourth batch.
func applyStream(t *testing.T, s *Sparsifier, stream []graph.Edge, batchSize int) {
	t.Helper()
	for k := 0; k+batchSize <= len(stream); k += batchSize {
		batch := stream[k : k+batchSize]
		if _, err := s.UpdateBatch(append([]graph.Edge(nil), batch...)); err != nil {
			t.Fatal(err)
		}
		if (k/batchSize)%4 == 3 {
			if _, err := s.DeleteEdges([]graph.Edge{batch[0]}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// decisionsBitEqual demands two decision streams match exactly, including the
// float bits of the distortion estimates that drove them.
func decisionsBitEqual(t *testing.T, tag string, a, b []Decision) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: decision counts %d vs %d", tag, len(a), len(b))
	}
	for i := range a {
		if a[i].Edge != b[i].Edge || a[i].Action != b[i].Action || a[i].Target != b[i].Target ||
			math.Float64bits(a[i].Distortion) != math.Float64bits(b[i].Distortion) {
			t.Fatalf("%s: decision %d: %+v vs %+v", tag, i, a[i], b[i])
		}
	}
}

// roundTrip simulates the WAL boundary: the snapshot a maintenance record
// carries arrives at replay as freshly decoded bytes, not the same pointer.
func roundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	out, err := graph.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSwapEquivalenceProperty is the maintenance subsystem's correctness
// anchor: a background rebuild — BuildSetup on a frozen snapshot of H while
// further edges land, then AdoptSetup with its endpoint-only sketch catch-up —
// must leave the sparsifier in exactly the state AdoptBasis produces from the
// serialized snapshot bytes (the WAL-replay path). Both engines then face an
// identical suffix stream and must emit bit-identical decisions and graphs,
// across seeds and initial densities.
func TestSwapEquivalenceProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, density := range []float64{0.1, 0.3} {
			t.Run(fmt.Sprintf("seed=%d/density=%g", seed, density), func(t *testing.T) {
				g1, live := buildGridPair(t, seed, density)
				g2, replayed := buildGridPair(t, seed, density)
				graphsBitEqual(t, "initial G", g1, g2)

				n := live.G.NumNodes()
				prefix := streamEdges(n, 96, seed^0x10)
				applyStream(t, live, prefix, 8)
				applyStream(t, replayed, prefix, 8)

				// The live engine snapshots H and starts the offline build;
				// the delta stream lands while the build runs.
				hSnap := live.H.Snapshot()
				basis, err := BuildSetup(hSnap, live.Config())
				if err != nil {
					t.Fatal(err)
				}
				delta := streamEdges(n, 24, seed^0x20)
				applyStream(t, live, delta, 8)
				applyStream(t, replayed, delta, 8)
				if err := live.AdoptSetup(basis); err != nil {
					t.Fatal(err)
				}

				// The replayed engine adopts from the snapshot's serialized
				// bytes — what a recovery replaying the maintenance record does.
				if err := replayed.AdoptBasis(roundTrip(t, hSnap), basis.TargetCond()); err != nil {
					t.Fatal(err)
				}

				if live.FilterLevel() != replayed.FilterLevel() {
					t.Fatalf("filter levels %d vs %d", live.FilterLevel(), replayed.FilterLevel())
				}
				graphsBitEqual(t, "H after swap", live.H, replayed.H)

				// The decisive check: identical downstream behavior.
				suffix := streamEdges(n, 80, seed^0x30)
				for k := 0; k+10 <= len(suffix); k += 10 {
					batch := suffix[k : k+10]
					dLive, err := live.UpdateBatch(append([]graph.Edge(nil), batch...))
					if err != nil {
						t.Fatal(err)
					}
					dRep, err := replayed.UpdateBatch(append([]graph.Edge(nil), batch...))
					if err != nil {
						t.Fatal(err)
					}
					decisionsBitEqual(t, fmt.Sprintf("suffix batch %d", k), dLive, dRep)
				}
				graphsBitEqual(t, "final G", live.G, replayed.G)
				graphsBitEqual(t, "final H", live.H, replayed.H)
				if live.Stats() != replayed.Stats() {
					t.Fatalf("stats diverge: %+v vs %+v", live.Stats(), replayed.Stats())
				}
			})
		}
	}
}

// buildGridPair builds a random-graph sparsifier with fully deterministic
// seeds so two calls with the same arguments are bit-identical.
func buildGridPair(t *testing.T, seed uint64, density float64) (*graph.Graph, *Sparsifier) {
	t.Helper()
	const n, extra = 60, 120
	r := vecmath.NewRNG(seed)
	g := graph.New(n, n+extra)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)], r.Range(0.1, 10))
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, r.Range(0.1, 10))
		}
	}
	init, err := grass.InitialSparsifier(g, density, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparsifier(g, init.H, Config{
		TargetCond: 50,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: seed ^ 0x1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

// TestAdoptSetupValidation pins the guard rails: a basis is single-use, must
// match the sparsifier's node count, and can never index more edges than the
// live H holds.
func TestAdoptSetupValidation(t *testing.T) {
	_, s := setup(t, 8, 8, 0.1, 50)
	basis, err := BuildSetup(s.H.Snapshot(), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptSetup(basis); err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptSetup(basis); err == nil {
		t.Fatal("want error adopting a consumed basis")
	}

	// Node-count mismatch.
	small := graph.New(4, 3)
	small.AddEdge(0, 1, 1)
	small.AddEdge(1, 2, 1)
	small.AddEdge(2, 3, 1)
	if err := s.AdoptBasis(small, 50); err == nil {
		t.Fatal("want error on node-count mismatch")
	}

	// A basis from a future H (more edges than the adopter) must be refused.
	_, ahead := setup(t, 8, 8, 0.1, 50)
	if _, err := ahead.UpdateBatch(streamEdges(ahead.G.NumNodes(), 40, 9)); err != nil {
		t.Fatal(err)
	}
	_, behind := setup(t, 8, 8, 0.1, 50)
	b2, err := BuildSetup(ahead.H.Snapshot(), ahead.Config())
	if err != nil {
		t.Fatal(err)
	}
	if behind.H.NumEdges() < ahead.H.NumEdges() {
		if err := behind.AdoptSetup(b2); err == nil {
			t.Fatal("want error adopting a basis ahead of H")
		}
	}
}

// TestAdoptBasisMatchesResparsify: adopting a basis built from the current H
// is exactly Resparsify (which is implemented through the same path); the
// test pins that equivalence against regressions in either entry point.
func TestAdoptBasisMatchesResparsify(t *testing.T) {
	_, a := setup(t, 8, 8, 0.1, 50)
	_, b := setup(t, 8, 8, 0.1, 50)
	stream := streamEdges(a.G.NumNodes(), 60, 11)
	applyStream(t, a, stream, 6)
	applyStream(t, b, stream, 6)

	if err := a.Resparsify(); err != nil {
		t.Fatal(err)
	}
	if err := b.AdoptBasis(b.H.Snapshot(), b.Config().TargetCond); err != nil {
		t.Fatal(err)
	}
	if a.FilterLevel() != b.FilterLevel() {
		t.Fatalf("filter levels %d vs %d", a.FilterLevel(), b.FilterLevel())
	}
	suffix := streamEdges(a.G.NumNodes(), 30, 12)
	dA, err := a.UpdateBatch(append([]graph.Edge(nil), suffix...))
	if err != nil {
		t.Fatal(err)
	}
	dB, err := b.UpdateBatch(append([]graph.Edge(nil), suffix...))
	if err != nil {
		t.Fatal(err)
	}
	decisionsBitEqual(t, "post-resparsify", dA, dB)
	graphsBitEqual(t, "final H", a.H, b.H)
}

// TestOnlyFilterLevelPairsIndexed pins the update path to the sketch's pair
// index at the filter level: setup, restore and an offline rebuild each hold
// that one level, the level the configuration selects on the decomposition,
// and after updates, deletions and a swap catch-up its pair lists equal the
// ones a brute-force scan of H gives. The adopted basis must arrive indexed,
// so the swap under the writer does no O(|E_H|) index build.
func TestOnlyFilterLevelPairsIndexed(t *testing.T) {
	_, fresh := setup(t, 10, 10, 0.1, 50)
	if fresh.dec.Levels < 4 {
		t.Fatalf("fixture has %d levels; the test needs levels besides the filter level", fresh.dec.Levels)
	}
	onlyPairsAt(t, "after setup", fresh)

	_, s := setup(t, 10, 10, 0.1, 50)
	n := s.G.NumNodes()
	applyStream(t, s, streamEdges(n, 96, 1), 8)
	st := s.PersistentState()
	onlyPairsAt(t, "after setup and a stream", s)

	for _, stream := range []int{0, 48} {
		restored, err := RestoreSparsifier(st)
		if err != nil {
			t.Fatal(err)
		}
		applyStream(t, restored, streamEdges(n, stream, 2), 8)
		onlyPairsAt(t, fmt.Sprintf("after restore and %d edges", stream), restored)
	}

	cfg := s.Config()
	cfg.TargetCond = 20
	basis, err := BuildSetup(s.H.Snapshot(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := basis.sk.Level(), cfg.withDefaults().filterLevel(basis.dec); got != want {
		t.Fatalf("BuildSetup indexed level %d, want the filter level %d", got, want)
	}
	applyStream(t, s, streamEdges(n, 48, 3), 8)
	if err := s.AdoptSetup(basis); err != nil {
		t.Fatal(err)
	}
	applyStream(t, s, streamEdges(n, 48, 4), 8)
	onlyPairsAt(t, "after a swap and a stream", s)
}

// onlyPairsAt fails unless s's sketch holds the level s's configuration
// selects on its decomposition, and, for every H edge, the pair list of its
// endpoints' clusters at that level is every H edge crossing the same
// cluster pair, in index order.
func onlyPairsAt(t *testing.T, tag string, s *Sparsifier) {
	t.Helper()
	L := s.FilterLevel()
	if want := s.cfg.filterLevel(s.dec); L != want {
		t.Fatalf("%s: sketch holds level %d, the configuration selects %d", tag, L, want)
	}
	want := map[[2]int32][]int32{}
	key := func(u, v int) [2]int32 {
		cu, cv := s.dec.ClusterID(L, u), s.dec.ClusterID(L, v)
		return [2]int32{min(cu, cv), max(cu, cv)}
	}
	for ei, e := range s.H.All() {
		if !s.sk.SameCluster(e.U, e.V) {
			want[key(e.U, e.V)] = append(want[key(e.U, e.V)], int32(ei))
		}
	}
	for _, e := range s.H.All() {
		if got := s.sk.PairEdges(e.U, e.V); !slices.Equal(got, want[key(e.U, e.V)]) {
			t.Fatalf("%s: pair of (%d,%d) at level %d holds %v, H gives %v", tag, e.U, e.V, L, got, want[key(e.U, e.V)])
		}
	}
}

// TestOnlyFilterLevelSpansIndexed pins redistribution to the sketch's
// intra-span index at the filter level: after setup, promotions, streams,
// a restore and a swap catch-up, the sketch holds the filter level, and its
// span for every node's cluster equals the one a structure freshly indexed
// at that level over the same decomposition and H lays out.
func TestOnlyFilterLevelSpansIndexed(t *testing.T) {
	_, fresh := setup(t, 10, 10, 0.1, 50)
	onlySpansAt(t, "after setup", fresh)

	// A spanning-tree H: every deleted H edge is a bridge and promotes a
	// replacement, some of them internal at or below the filter level.
	g := grid(10, 10)
	init, err := grass.Sparsify(g, grass.Config{TargetDensity: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSparsifier(g, init.H, Config{TargetCond: 100, LRD: lrd.Config{Krylov: krylov.Config{Seed: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	below := 0
	for i := 0; i < 20; i++ {
		he := s.H.Edge(3 * i)
		res, err := s.DeleteEdges([]graph.Edge{{U: he.U, V: he.V}})
		if err != nil {
			t.Fatal(err)
		}
		if r := res[0].Replacement; r >= 0 {
			e := s.H.Edge(r)
			if l := s.dec.SharedLevel(e.U, e.V); l > 0 && l <= s.FilterLevel() {
				below++
			}
		}
	}
	if below == 0 {
		t.Fatal("fixture promoted no edge internal at or below the filter level")
	}
	onlySpansAt(t, "after promotions", s)

	for _, stream := range []int{0, 48} {
		_, s := setup(t, 10, 10, 0.1, 50)
		n := s.G.NumNodes()
		applyStream(t, s, streamEdges(n, 96, 1), 8)
		restored, err := RestoreSparsifier(s.PersistentState())
		if err != nil {
			t.Fatal(err)
		}
		applyStream(t, restored, streamEdges(n, stream, 2), 8)
		onlySpansAt(t, fmt.Sprintf("after restore and %d edges", stream), restored)

		cfg := s.Config()
		cfg.TargetCond = 20
		basis, err := BuildSetup(s.H.Snapshot(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyStream(t, s, streamEdges(n, 48, 3), 8)
		if err := s.AdoptSetup(basis); err != nil {
			t.Fatal(err)
		}
		applyStream(t, s, streamEdges(n, stream, 4), 8)
		onlySpansAt(t, fmt.Sprintf("after a swap and %d edges", stream), s)
	}
}

// onlySpansAt fails unless s's sketch holds the level s's configuration
// selects on its decomposition, and its span for every node's cluster
// equals the one a structure freshly indexed at that level over the same
// decomposition and H lays out.
func onlySpansAt(t *testing.T, tag string, s *Sparsifier) {
	t.Helper()
	L := s.FilterLevel()
	if want := s.cfg.filterLevel(s.dec); L != want {
		t.Fatalf("%s: sketch holds level %d, the configuration selects %d", tag, L, want)
	}
	ref, err := sketch.New(s.dec, s.H)
	if err != nil {
		t.Fatal(err)
	}
	ref.Index(L)
	for v := 0; v < s.H.NumNodes(); v++ {
		got, want := s.sk.IntraClusterEdges(v), ref.IntraClusterEdges(v)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: node %d's span at level %d is %v, a fresh index gives %v", tag, v, L, got, want)
		}
	}
}
