package grass

import (
	"fmt"
	"slices"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/tree"
	"ingrass/internal/vecmath"
)

// referenceSparsify is Sparsify with the similarity filter as a per-edge
// cover count: it walks the whole tree path of every candidate, skips the
// candidate if every edge on it is covered, and otherwise covers them all.
func referenceSparsify(g *graph.Graph, cfg Config) *Result {
	var st *tree.SpanningTree
	switch cfg.Tree {
	case TreeMaxWeight:
		st = tree.MaxWeight(g)
	default:
		st = tree.LowStretch(g, cfg.Seed)
	}
	oracle := tree.NewPathOracle(st)
	var cands []cand
	for _, ei := range st.OffTreeEdges() {
		e := g.Edge(ei)
		cands = append(cands, cand{edge: ei, distortion: e.W * oracle.Resistance(e.U, e.V)})
	}
	slices.SortFunc(cands, byDistortion)
	budget := min(int(cfg.TargetDensity*float64(g.NumEdges())), len(cands))

	res := &Result{TreeEdges: len(st.EdgeIdx)}
	keep := append([]int(nil), st.EdgeIdx...)
	admit := func(c cand) {
		keep = append(keep, c.edge)
		res.Distortion = append(res.Distortion, c.distortion)
		res.OffTree++
	}
	cover := make([]int, g.NumEdges())
	var skipped []cand
	var path []int
	for _, c := range cands {
		if res.OffTree >= budget {
			break
		}
		if cfg.SimilarityFilter {
			e := g.Edge(c.edge)
			path = path[:0]
			if l := oracle.LCA(e.U, e.V); l >= 0 {
				for _, x := range [2]int{e.U, e.V} {
					for ; x != l; x = st.Parent[x] {
						path = append(path, st.ParentEdge[x])
					}
				}
			}
			covered := len(path) > 0
			for _, te := range path {
				if cover[te] < 1 {
					covered = false
					break
				}
			}
			if covered {
				res.SkippedRedundant++
				skipped = append(skipped, c)
				continue
			}
			for _, te := range path {
				cover[te]++
			}
		}
		admit(c)
	}
	for _, c := range skipped {
		if res.OffTree >= budget {
			break
		}
		admit(c)
	}
	res.H = g.Subgraph(keep)
	return res
}

// TestCoverFilterMatchesPathWalkProperty checks the union-find similarity
// filter against the path-walking reference over random graphs, a third of
// them with a second component, for both tree kinds and densities up to
// ones where the filter starves the budget and backfill runs.
func TestCoverFilterMatchesPathWalkProperty(t *testing.T) {
	r := vecmath.NewRNG(11)
	skippedAny, backfilled := false, false
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(180)
		g := weightedRandom(n, n+r.Intn(4*n), uint64(100+trial))
		if trial%3 == 0 {
			g = withSecondComponent(g, 5+r.Intn(20), r)
		}
		for _, kind := range []TreeKind{TreeLowStretch, TreeMaxWeight} {
			for _, density := range []float64{0.05, 0.2, 0.6} {
				cfg := Config{TargetDensity: density, Tree: kind, SimilarityFilter: true, Seed: uint64(trial)}
				name := fmt.Sprintf("trial=%d/tree=%d/density=%v", trial, kind, density)
				got, err := Sparsify(g, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := referenceSparsify(g, cfg)
				if got.SkippedRedundant != want.SkippedRedundant {
					t.Fatalf("%s: skipped %d, reference %d", name, got.SkippedRedundant, want.SkippedRedundant)
				}
				if !slices.Equal(got.H.AppendEdges(nil), want.H.AppendEdges(nil)) {
					t.Fatalf("%s: H edge lists differ", name)
				}
				if !slices.Equal(got.Distortion, want.Distortion) {
					t.Fatalf("%s: admission distortions differ", name)
				}
				skippedAny = skippedAny || got.SkippedRedundant > 0
				backfilled = backfilled || isBackfilled(got.Distortion)
			}
		}
	}
	if !skippedAny || !backfilled {
		t.Fatalf("property inputs too easy: skipped any %v, backfilled %v", skippedAny, backfilled)
	}
}

// isBackfilled reports whether admissions are out of descending order,
// which happens only when a skipped candidate was backfilled.
func isBackfilled(d []float64) bool {
	for i := 1; i < len(d); i++ {
		if d[i] > d[i-1] {
			return true
		}
	}
	return false
}

// withSecondComponent returns g plus k new nodes joined by a random tree and
// chords among themselves only.
func withSecondComponent(g *graph.Graph, k int, r *vecmath.RNG) *graph.Graph {
	n := g.NumNodes()
	h := graph.New(n+k, g.NumEdges()+2*k)
	for _, e := range g.All() {
		h.AddEdge(e.U, e.V, e.W)
	}
	for i := 1; i < k; i++ {
		h.AddEdge(n+i, n+r.Intn(i), r.Range(0.1, 10))
	}
	for j := 0; j < k; j++ {
		if u, v := n+r.Intn(k), n+r.Intn(k); u != v {
			h.AddEdge(u, v, r.Range(0.1, 10))
		}
	}
	return h
}
