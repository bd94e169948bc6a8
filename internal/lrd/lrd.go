// Package lrd implements the multilevel low-resistance-diameter (LRD)
// decomposition at the heart of inGRASS's setup phase (paper Section
// III-B2, following the HyperEF clustering of Aghdaei & Feng).
//
// Starting from singleton clusters, each level estimates the effective
// resistance of the current (contracted) sparsifier's edges with the Krylov
// embedding, then contracts edges in ascending-resistance order as long as
// the merged cluster's resistance diameter stays within the level's budget.
// Contracted clusters become supernodes of the next level and the budget
// grows geometrically, so after O(log N) levels every connected component
// is a single cluster. Each node's cluster index at every level is the
// O(log N)-dimensional resistance embedding: the resistance between any two
// nodes is estimated by the diameter of the first cluster they share. The
// clusters are nested, so the hierarchy is stored as a cluster tree, one
// parent map per level, and a node's embedding vector is read by walking
// the tree up from the node. The diameters are sums of Krylov resistance
// estimates, so this is an estimate, not a bound: it can fall below the
// exact resistance.
package lrd

import (
	"fmt"
	"math"

	"ingrass/internal/graph"
	"ingrass/internal/krylov"
	"ingrass/internal/vecmath"
)

// Config controls the decomposition.
type Config struct {
	// InitialDiameter is the resistance-diameter budget of level 1.
	// 0 means automatic: twice the median estimated edge resistance.
	InitialDiameter float64
	// Growth multiplies the budget per level. Default 2.
	Growth float64
	// MaxLevels bounds the hierarchy depth. Default ceil(log2 N) + 2.
	// The final level always merges whole connected components so that
	// every connected pair shares a cluster somewhere in the hierarchy.
	MaxLevels int
	// Krylov configures resistance estimation at each level.
	Krylov krylov.Config
}

func (c Config) withDefaults(n int) Config {
	if c.Growth <= 1 {
		c.Growth = 2
	}
	if c.MaxLevels <= 0 {
		c.MaxLevels = 2
		for s := n; s > 1; s >>= 1 {
			c.MaxLevels++
		}
	}
	return c
}

// Decomposition is the multilevel clustering result, stored as a cluster
// tree. Level 0 is the singleton level: cluster v is node v, with diameter
// 0. Level Levels-1 merges whole connected components. Cluster ids at each
// level are dense in [0, NumClusters[l]), and they ascend with each
// cluster's lowest node id: Build renumbers every level in first-seen
// order.
type Decomposition struct {
	N      int
	Levels int
	// up[l][c] is the level-(l+1) cluster that holds level-l cluster c.
	up [][]int32
	// diam[l-1][c] is the tracked resistance-diameter estimate of cluster c
	// at level l >= 1: the sum of the Krylov-estimated resistances along the
	// contractions that formed it. It is not an upper bound on the exact
	// diameter.
	diam [][]float64
	// NumClusters[l] is the cluster count at level l.
	NumClusters []int
	// Budget[l] is the diameter budget that produced level l (0 for level 0,
	// +Inf for the final component level).
	Budget []float64
	// MaxClusterSize[l] is the node count of the largest cluster at level l.
	MaxClusterSize []int
}

// Up returns the parent map of level l, for l in [0, Levels-1): entry c is
// the level-(l+1) cluster that holds level-l cluster c. Callers must not
// modify it.
func (d *Decomposition) Up(l int) []int32 { return d.up[l] }

// Diameter returns the tracked resistance-diameter estimate of cluster c at
// level l: 0 at level 0, else the sum of the Krylov-estimated resistances
// along the contractions that formed the cluster. It is not an upper bound
// on the exact diameter.
func (d *Decomposition) Diameter(l int, c int32) float64 {
	if l == 0 {
		return 0
	}
	return d.diam[l-1][c]
}

// ClusterID returns node v's cluster index at level l. It walks l parent
// maps, so it costs O(l); a caller that reads one level for many nodes
// should take Labels(l) once.
func (d *Decomposition) ClusterID(l, v int) int32 {
	c := int32(v)
	for _, up := range d.up[:l] {
		c = up[c]
	}
	return c
}

// Labels returns every node's cluster index at level l, in a new slice of
// length N. It costs O(N·l).
func (d *Decomposition) Labels(l int) []int32 {
	out := make([]int32, d.N)
	for v := range out {
		out[v] = int32(v)
	}
	for _, up := range d.up[:l] {
		for v, c := range out {
			out[v] = up[c]
		}
	}
	return out
}

// EmbeddingVector returns the per-level cluster indices of node v — the
// node's resistance-embedding vector from the paper's Fig. 2.
func (d *Decomposition) EmbeddingVector(v int) []int32 {
	out := make([]int32, d.Levels)
	out[0] = int32(v)
	for l, up := range d.up {
		out[l+1] = up[out[l]]
	}
	return out
}

// Meet walks p and q up the cluster tree together and returns the lowest
// level at which they share a cluster, and that cluster. It returns
// (0, p) when p == q and (-1, -1) if they never share one (different
// connected components).
func (d *Decomposition) Meet(p, q int) (level int, cluster int32) {
	cp, cq := int32(p), int32(q)
	if cp == cq {
		return 0, cp
	}
	for l, up := range d.up {
		cp, cq = up[cp], up[cq]
		if cp == cq {
			return l + 1, cp
		}
	}
	return -1, -1
}

// SharedLevel returns the lowest level at which p and q belong to the same
// cluster, or -1 if they never do (different connected components).
func (d *Decomposition) SharedLevel(p, q int) int {
	l, _ := d.Meet(p, q)
	return l
}

// ResistanceEstimate returns the hierarchy's estimate of the effective
// resistance between p and q: the tracked diameter of the first shared
// cluster. It is not an upper bound: it can fall below the exact
// resistance. It returns +Inf for disconnected pairs.
func (d *Decomposition) ResistanceEstimate(p, q int) float64 {
	l, c := d.Meet(p, q)
	if l < 0 {
		return math.Inf(1)
	}
	return d.Diameter(l, c)
}

// FilterLevel selects the update-phase filtering level for a target
// condition number C: the deepest level whose largest cluster has at most
// C/2 nodes (paper Section III-C2). It always returns at least level 1 so
// filtering has non-trivial clusters to work with.
func (d *Decomposition) FilterLevel(targetCond float64) int {
	limit := targetCond / 2
	best := 1
	for l := 1; l < d.Levels; l++ {
		if float64(d.MaxClusterSize[l]) <= limit {
			best = l
		}
	}
	return best
}

// Build runs the decomposition on the sparsifier h. h should be connected
// for the hierarchy to terminate at a single cluster; disconnected inputs
// produce one top-level cluster per component.
func Build(h *graph.Graph, cfg Config) (*Decomposition, error) {
	n := h.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("lrd: empty graph")
	}
	cfg = cfg.withDefaults(n)

	// Level 0, the singletons, is implicit: it keeps no per-node array.
	d := &Decomposition{N: n, NumClusters: []int{n}, Budget: []float64{0}, MaxClusterSize: []int{1}}

	// The contracted graph at the current top level, plus each supernode's
	// carried diameter and node count.
	cur := h
	carriedDiam := make([]float64, n)
	carriedSize := make([]int32, n)
	for i := range carriedSize {
		carriedSize[i] = 1
	}

	budget := cfg.InitialDiameter
	seed := cfg.Krylov.Seed

	for level := 1; ; level++ {
		if cur.NumNodes() <= 1 {
			break
		}
		final := level >= cfg.MaxLevels
		var resist []float64
		if final {
			budget = math.Inf(1)
			resist = make([]float64, cur.NumEdges())
		} else {
			kcfg := cfg.Krylov
			kcfg.Seed = seed + uint64(level)*0x9e37
			emb, err := krylov.NewEmbedding(cur, kcfg)
			if err != nil {
				return nil, fmt.Errorf("lrd: level %d embedding: %w", level, err)
			}
			resist = emb.EstimateEdges(cur, kcfg.Workers)
		}

		// Ascending resistance, ties by edge index.
		order := vecmath.Order(resist, false)
		if budget == 0 {
			if len(order) > 0 {
				budget = 2 * resist[order[len(order)/2]] // twice the median
			}
			if budget <= 0 {
				budget = 1
			}
		}

		uf := graph.NewUnionFind(cur.NumNodes())
		diam := append([]float64(nil), carriedDiam...)
		merged := false
		for _, ei := range order {
			e := cur.Edge(int(ei))
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			nd := diam[ru] + diam[rv] + resist[ei]
			if !final && nd > budget {
				continue
			}
			uf.Union(ru, rv)
			diam[uf.Find(ru)] = nd
			merged = true
		}

		// Dense-renumber the new clusters in first-seen node order. The
		// nodes here are the clusters below in id order, so by induction ids
		// at every level ascend with each cluster's lowest node id. rootID
		// is indexed by union-find root; -1 marks a root not yet seen.
		rootID := make([]int32, cur.NumNodes())
		for i := range rootID {
			rootID[i] = -1
		}
		newID := make([]int32, cur.NumNodes())
		var count int32
		for v := 0; v < cur.NumNodes(); v++ {
			r := uf.Find(v)
			if rootID[r] < 0 {
				rootID[r] = count
				count++
			}
			newID[v] = rootID[r]
		}

		// Cluster diameters, sizes in the dense numbering.
		newDiam := make([]float64, count)
		newSize := make([]int32, count)
		for v := 0; v < cur.NumNodes(); v++ {
			r := uf.Find(v)
			newDiam[newID[v]] = diam[r]
			newSize[newID[v]] += carriedSize[v]
		}
		maxSize := 0
		for _, s := range newSize {
			if int(s) > maxSize {
				maxSize = int(s)
			}
		}

		// newID maps each cluster of the level below to its cluster here:
		// it is the parent map, the level's edge of the cluster tree.
		d.up = append(d.up, newID)
		d.diam = append(d.diam, newDiam)
		d.NumClusters = append(d.NumClusters, int(count))
		d.Budget = append(d.Budget, budget)
		d.MaxClusterSize = append(d.MaxClusterSize, maxSize)

		if int(count) == 1 || final {
			break
		}
		if !merged {
			// Budget too small to merge anything: grow it and retry at the
			// next level (the level we just appended is a no-op copy, which
			// keeps Budget/level bookkeeping aligned).
			budget *= cfg.Growth
			// Avoid unbounded identical levels: jump straight to the
			// smallest merging cost next time.
			if len(resist) > 0 {
				minCost := math.Inf(1)
				for i, r := range resist {
					e := cur.Edge(i)
					if uf.Find(e.U) != uf.Find(e.V) && r < minCost {
						minCost = r
					}
				}
				if !math.IsInf(minCost, 1) && budget < minCost {
					budget = minCost * 1.01
				}
			}
			continue
		}

		// Contract: build the next-level supergraph with aggregated edge
		// weights (parallel conductances add).
		next := graph.New(int(count), cur.NumEdges()/2)
		agg := make(map[uint64]int, cur.NumEdges()/2)
		for _, e := range cur.All() {
			cu, cv := newID[e.U], newID[e.V]
			if cu == cv {
				continue
			}
			k := graph.KeyOf(int(cu), int(cv))
			if i, ok := agg[k]; ok {
				next.AddWeight(i, e.W)
			} else {
				agg[k] = next.AddEdge(int(cu), int(cv), e.W)
			}
		}
		cur = next
		carriedDiam = newDiam
		carriedSize = newSize
		budget *= cfg.Growth
	}

	d.Levels = len(d.up) + 1
	return d, nil
}
