package tree

import (
	"slices"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// LowStretch builds a spanning forest with an AKPW-flavored multilevel
// clustering scheme (Alon-Karp-Peleg-West as refined by Abraham-Neiman):
//
//  1. Edges are admitted in decreasing weight classes (geometric buckets
//     with growth factor mu), since in the conductance model heavy edges
//     are low-resistance and should be near the bottom of the tree.
//  2. At each level, the current clusters are grouped by randomized
//     low-diameter ball growing over the admissible inter-cluster edges;
//     BFS edges of each ball join the tree and the ball contracts into a
//     single cluster for the next level.
//
// Compared to the plain maximum-weight tree, the shallow balls bound the
// hop diameter of each cluster, which is what keeps the average stretch —
// and hence the resistance diameter that the LRD decomposition later
// partitions — low. seed makes the randomized ball growing deterministic.
func LowStretch(g *graph.Graph, seed uint64) *SpanningTree {
	n := g.NumNodes()
	if n == 0 || g.NumEdges() == 0 {
		return New(g, nil)
	}
	rng := vecmath.NewRNG(seed)
	uf := graph.NewUnionFind(n)
	treeEdges := make([]int, 0, n-1)

	_, targetComponents := graph.Components(g)

	// cands holds, in edge-index order, every edge that may still cross two
	// clusters. Clusters only ever merge, so an edge found internal leaves
	// the list for good.
	type cand struct {
		u, v, edge int32
		w          float64
	}
	cands := make([]cand, 0, g.NumEdges())
	maxW := g.Edge(0).W
	minW := maxW
	for ei, e := range g.All() {
		if e.W > maxW {
			maxW = e.W
		}
		if e.W < minW {
			minW = e.W
		}
		cands = append(cands, cand{u: int32(e.U), v: int32(e.V), edge: int32(ei), w: e.W})
	}
	const mu = 4.0
	threshold := maxW / mu

	type superArc struct {
		to, edge int32
	}
	type crossing struct {
		ru, rv, edge int32
	}
	// Scratch indexed by union-find root, reused across levels. supers
	// lists the roots with a crossing edge this level, in first-touch order;
	// only their deg, start and assigned entries are ever non-zero. Root x's
	// supernode arcs are arcs[start[x] : start[x]+deg[x]], in edge-index
	// order.
	deg := make([]int32, n)
	start := make([]int32, n)
	assigned := make([]bool, n)
	hops := make([]int, n)
	var (
		supers []int
		cross  []crossing
		arcs   []superArc
	)
	queue := make([]int, 0, 64)

	for uf.Count() > targetComponents {
		// Gather admissible edges that cross current clusters.
		for _, s := range supers {
			deg[s] = 0
			assigned[s] = false
		}
		supers, cross = supers[:0], cross[:0]
		kept := cands[:0]
		for _, c := range cands {
			if c.w < threshold {
				kept = append(kept, c)
				continue
			}
			ru, rv := uf.Find(int(c.u)), uf.Find(int(c.v))
			if ru == rv {
				continue
			}
			kept = append(kept, c)
			if deg[ru] == 0 {
				supers = append(supers, ru)
			}
			if deg[rv] == 0 {
				supers = append(supers, rv)
			}
			deg[ru]++
			deg[rv]++
			cross = append(cross, crossing{ru: int32(ru), rv: int32(rv), edge: c.edge})
		}
		cands = kept
		if len(supers) == 0 {
			if threshold <= 0 {
				break // only cross-component edges remain impossible
			}
			// Admit the next weight class; below the minimum weight admit
			// everything so termination is unconditional.
			if threshold <= minW {
				threshold = 0
			} else {
				threshold /= mu
			}
			continue
		}
		// Lay the supernode adjacency out as one counted arena: deg counts
		// back up from zero as each root's span fills.
		next := int32(0)
		for _, s := range supers {
			start[s], next = next, next+deg[s]
			deg[s] = 0
		}
		arcs = slices.Grow(arcs[:0], int(next))[:next]
		for _, c := range cross {
			arcs[start[c.ru]+deg[c.ru]] = superArc{to: c.rv, edge: c.edge}
			deg[c.ru]++
			arcs[start[c.rv]+deg[c.rv]] = superArc{to: c.ru, edge: c.edge}
			deg[c.rv]++
		}

		// Randomized ball growing over the supernode graph, visiting
		// centers in a seeded shuffle of the ascending root order.
		slices.Sort(supers)
		rng.Shuffle(len(supers), func(i, j int) { supers[i], supers[j] = supers[j], supers[i] })

		for _, center := range supers {
			if assigned[center] {
				continue
			}
			radius := 1 + rng.Intn(2) // shallow balls: 1 or 2 hops
			assigned[center] = true
			// hops is read only for nodes placed in this ball, each of
			// which is written first, so stale entries never leak in.
			hops[center] = 0
			queue = append(queue[:0], center)
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				if hops[x] >= radius {
					continue
				}
				for _, a := range arcs[start[x] : start[x]+deg[x]] {
					to := int(a.to)
					if assigned[to] {
						continue
					}
					assigned[to] = true
					hops[to] = hops[x] + 1
					treeEdges = append(treeEdges, int(a.edge))
					uf.Union(x, to)
					queue = append(queue, to)
				}
			}
		}
		if threshold <= minW {
			threshold = 0
		} else {
			threshold /= mu
		}
	}
	return New(g, treeEdges)
}
