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
	"fmt"

	"ingrass/internal/graph"
	"ingrass/internal/tree"
	"ingrass/internal/vecmath"
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
	// SimilarityFilter enables cycle-coverage filtering: a candidate whose
	// whole tree path is covered by the paths of candidates admitted before
	// it is skipped as redundant (and only backfilled if the budget would
	// otherwise go unmet).
	SimilarityFilter bool
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

	var st *tree.SpanningTree
	switch cfg.Tree {
	case TreeMaxWeight:
		st = tree.MaxWeight(g)
	default:
		st = tree.LowStretch(g, cfg.Seed)
	}
	oracle := tree.NewPathOracle(st)

	// Rank off-tree candidates by spectral distortion w * R_T, highest
	// first. off ascends, so ties fall to the lower edge index.
	off := st.OffTreeEdges()
	dist := make([]float64, len(off))
	for i, ei := range off {
		e := g.Edge(ei)
		dist[i] = e.W * oracle.Resistance(e.U, e.V)
	}
	order := vecmath.Order(dist, true)

	budget := int(cfg.TargetDensity * float64(g.NumEdges()))
	if budget > len(off) {
		budget = len(off)
	}

	res := &Result{TreeEdges: len(st.EdgeIdx)}
	keep := append([]int(nil), st.EdgeIdx...)

	var cover *pathCover
	if cfg.SimilarityFilter {
		cover = newPathCover(st)
	}
	admit := func(c cand) {
		keep = append(keep, c.edge)
		res.Distortion = append(res.Distortion, c.distortion)
		res.OffTree++
	}

	var skipped []cand
	for _, p := range order {
		if res.OffTree >= budget {
			break
		}
		c := cand{edge: off[p], distortion: dist[p]}
		if cover != nil {
			e := g.Edge(c.edge)
			if !cover.add(e.U, e.V, oracle.LCA(e.U, e.V)) {
				res.SkippedRedundant++
				skipped = append(skipped, c)
				continue
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

// pathCover records which tree edges the paths of admitted candidates
// cover. A tree edge is either covered or not and cover only grows, so it
// keeps, per node x, jump[x]: an ancestor-or-self of x such that every
// parent edge from x up to it is covered. Following jump to its fixed point
// (find) gives x's nearest ancestor-or-self whose parent edge is uncovered,
// or its root; path halving keeps the chains short.
type pathCover struct {
	parent, depth, jump []int
}

func newPathCover(st *tree.SpanningTree) *pathCover {
	jump := make([]int, len(st.Parent))
	for x := range jump {
		jump[x] = x
	}
	return &pathCover{parent: st.Parent, depth: st.Depth, jump: jump}
}

func (c *pathCover) find(x int) int {
	for c.jump[x] != x {
		c.jump[x] = c.jump[c.jump[x]]
		x = c.jump[x]
	}
	return x
}

// add reports whether the tree path between u and v, whose LCA is l, has
// an uncovered edge, and if so covers the whole path. A pair in different
// components (l < 0) has no path: it is reported new and covers nothing.
func (c *pathCover) add(u, v, l int) bool {
	if l < 0 {
		return true
	}
	fu, fv := c.find(u), c.find(v)
	if c.depth[fu] <= c.depth[l] && c.depth[fv] <= c.depth[l] {
		return false
	}
	for _, x := range [2]int{fu, fv} {
		for c.depth[x] > c.depth[l] {
			p := c.parent[x]
			c.jump[x] = p
			x = c.find(p)
		}
	}
	return true
}

// cand is an off-tree edge ranked for admission.
type cand struct {
	edge       int
	distortion float64
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
