// Package grass implements a GRASS-style spectral sparsifier (Feng,
// DAC'16 / TCAD'20; similarity-aware filtering per DAC'18). It serves two
// roles in this repository: constructing the initial sparsifier H(0) that
// inGRASS's setup phase consumes, and acting as the "re-run from scratch"
// baseline that the paper's tables compare against.
//
// The algorithm:
//
//  1. Build a low-stretch (or maximum-weight) spanning tree of G.
//  2. Rank every off-tree edge by its spectral distortion — edge weight
//     times tree-path effective resistance, the quantity Lemma 3.2 shows
//     governs the Laplacian eigenvalue perturbation of adding the edge.
//  3. Greedily admit the highest-distortion edges until the off-tree
//     density target is met, optionally skipping edges whose tree path is
//     already covered by a previously admitted edge (similarity-aware
//     filtering: such edges close near-identical cycles and contribute
//     little new spectral information).
package grass

import (
	"cmp"
	"fmt"
	"slices"

	"ingrass/internal/graph"
	"ingrass/internal/tree"
)

// TreeKind selects the spanning-tree backbone.
type TreeKind int

const (
	// TreeLowStretch uses the AKPW-style low-stretch tree (default).
	TreeLowStretch TreeKind = iota
	// TreeMaxWeight uses the Kruskal maximum-weight tree.
	TreeMaxWeight
)

// Config controls sparsification.
type Config struct {
	// TargetDensity is the off-tree edge budget as a fraction of |E_G|
	// (the paper's D measure). 0.1 reproduces the tables' 10% setting.
	TargetDensity float64
	// Tree selects the backbone algorithm.
	Tree TreeKind
	// SimilarityFilter enables cycle-coverage filtering of redundant edges.
	SimilarityFilter bool
	// CoverLimit is the number of admitted edges that may cover a tree edge
	// before further candidates crossing it are considered redundant.
	// Default 1; ignored unless SimilarityFilter.
	CoverLimit int
	// Seed drives the randomized low-stretch tree.
	Seed uint64
}

// Result is a constructed sparsifier plus diagnostics.
type Result struct {
	H *graph.Graph // sparsifier over the same node set
	// TreeEdges and OffTree count H's composition.
	TreeEdges int
	OffTree   int
	// Distortion[i] is the spectral distortion of H's i-th off-tree edge at
	// admission time (descending order of admission).
	Distortion []float64
	// SkippedRedundant counts candidates rejected by the similarity filter.
	SkippedRedundant int
}

// Sparsify builds a spectral sparsifier of g from scratch.
func Sparsify(g *graph.Graph, cfg Config) (*Result, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("grass: empty graph")
	}
	if cfg.TargetDensity < 0 || cfg.TargetDensity > 1 {
		return nil, fmt.Errorf("grass: target density %v out of [0,1]", cfg.TargetDensity)
	}
	if cfg.CoverLimit <= 0 {
		cfg.CoverLimit = 1
	}

	var st *tree.SpanningTree
	switch cfg.Tree {
	case TreeMaxWeight:
		st = tree.MaxWeight(g)
	default:
		st = tree.LowStretch(g, cfg.Seed)
	}
	oracle := tree.NewPathOracle(st)

	// Rank off-tree candidates by spectral distortion w * R_T.
	off := st.OffTreeEdges()
	cands := make([]cand, 0, len(off))
	for _, ei := range off {
		e := g.Edge(ei)
		d := e.W * oracle.Resistance(e.U, e.V)
		cands = append(cands, cand{edge: ei, distortion: d})
	}
	slices.SortFunc(cands, byDistortion)

	budget := int(cfg.TargetDensity * float64(g.NumEdges()))
	if budget > len(cands) {
		budget = len(cands)
	}

	res := &Result{TreeEdges: len(st.EdgeIdx)}
	keep := append([]int(nil), st.EdgeIdx...)

	var cover []int
	if cfg.SimilarityFilter {
		cover = make([]int, g.NumEdges())
	}
	admit := func(c cand) {
		keep = append(keep, c.edge)
		res.Distortion = append(res.Distortion, c.distortion)
		res.OffTree++
	}

	var skipped []cand
	var path []int
	for _, c := range cands {
		if res.OffTree >= budget {
			break
		}
		if cfg.SimilarityFilter {
			e := g.Edge(c.edge)
			path = oracle.AppendPathEdges(path[:0], e.U, e.V)
			covered := len(path) > 0
			for _, te := range path {
				if cover[te] < cfg.CoverLimit {
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
	// If filtering starved the budget, backfill with the best skipped
	// candidates so the density target is honored exactly.
	for _, c := range skipped {
		if res.OffTree >= budget {
			break
		}
		admit(c)
	}

	res.H = g.Subgraph(keep)
	return res, nil
}

// cand is an off-tree edge ranked for admission.
type cand struct {
	edge       int
	distortion float64
}

// byDistortion orders candidates by distortion, highest first, then by edge
// index. It is a total order, so the unstable sort is deterministic.
func byDistortion(a, b cand) int {
	switch {
	case a.distortion > b.distortion:
		return -1
	case a.distortion < b.distortion:
		return 1
	}
	return cmp.Compare(a.edge, b.edge)
}

// InitialSparsifier is the convenience entry point used across the
// experiment harness: a low-stretch-tree sparsifier with similarity
// filtering at the given off-tree density.
func InitialSparsifier(g *graph.Graph, density float64, seed uint64) (*Result, error) {
	return Sparsify(g, Config{
		TargetDensity:    density,
		Tree:             TreeLowStretch,
		SimilarityFilter: true,
		Seed:             seed,
	})
}
