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

	maxW := g.Edge(0).W
	minW := maxW
	for _, e := range g.Edges() {
		if e.W > maxW {
			maxW = e.W
		}
		if e.W < minW {
			minW = e.W
		}
	}
	const mu = 4.0
	threshold := maxW / mu

	type superArc struct {
		to   int
		edge int
	}
	// Scratch indexed by union-find root, reused across levels. supers
	// lists the roots with a crossing edge this level, in first-touch order;
	// only their adj and assigned entries are ever non-empty.
	adj := make([][]superArc, n)
	assigned := make([]bool, n)
	hops := make([]int, n)
	var supers []int
	queue := make([]int, 0, 64)

	for uf.Count() > targetComponents {
		// Gather admissible edges that cross current clusters.
		for _, s := range supers {
			adj[s] = adj[s][:0]
			assigned[s] = false
		}
		supers = supers[:0]
		for ei, e := range g.Edges() {
			if e.W < threshold {
				continue
			}
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			if len(adj[ru]) == 0 {
				supers = append(supers, ru)
			}
			if len(adj[rv]) == 0 {
				supers = append(supers, rv)
			}
			adj[ru] = append(adj[ru], superArc{to: rv, edge: ei})
			adj[rv] = append(adj[rv], superArc{to: ru, edge: ei})
		}
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
				for _, a := range adj[x] {
					if assigned[a.to] {
						continue
					}
					assigned[a.to] = true
					hops[a.to] = hops[x] + 1
					treeEdges = append(treeEdges, a.edge)
					uf.Union(x, a.to)
					queue = append(queue, a.to)
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
