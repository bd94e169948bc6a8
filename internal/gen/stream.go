package gen

import (
	"fmt"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// StreamKind selects how new edges are drawn.
type StreamKind int

const (
	// StreamUniform draws uniformly random non-adjacent node pairs —
	// long-range chords that perturb the spectrum strongly (matching the
	// large kappa drift the paper's Table II shows when updates are
	// ignored).
	StreamUniform StreamKind = iota
	// StreamLocal draws pairs within a small hop radius of each other —
	// the incremental-wire pattern of physical design updates.
	StreamLocal
)

// StreamConfig controls edge-stream generation.
type StreamConfig struct {
	Kind StreamKind
	// Count is the total number of new edges to draw.
	Count int
	// Batches splits the stream into equal iterations (paper: 10).
	Batches int
	// WeightLo/WeightHi bound the uniform weight draw, expressed as
	// multiples of the host graph's MEAN edge weight so streams perturb
	// every benchmark family comparably. Defaults [0.5, 2).
	WeightLo, WeightHi float64
	// HopRadius bounds StreamLocal pair distance. Default 4.
	HopRadius int
	// Seed drives the RNG.
	Seed uint64
}

// Stream draws a batch-partitioned stream of NEW edges for g: pairs that
// are not currently adjacent (parallel edges never appear in the stream,
// matching the paper's "newly introduced edges"). The same pair may not
// appear twice across the stream.
func Stream(g *graph.Graph, cfg StreamConfig) ([][]graph.Edge, error) {
	n := g.NumNodes()
	if n < 3 {
		return nil, fmt.Errorf("gen: Stream needs at least 3 nodes")
	}
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("gen: Stream count %d must be positive", cfg.Count)
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 1
	}
	if cfg.WeightHi <= cfg.WeightLo {
		cfg.WeightLo, cfg.WeightHi = 0.5, 2.0
	}
	if cfg.HopRadius <= 0 {
		cfg.HopRadius = 4
	}
	meanW := 1.0
	if g.NumEdges() > 0 {
		meanW = g.TotalWeight() / float64(g.NumEdges())
	}
	r := vecmath.NewRNG(cfg.Seed)

	used := make(map[uint64]bool, cfg.Count)
	edges := make([]graph.Edge, 0, cfg.Count)
	attempts := 0
	maxAttempts := 200*cfg.Count + 10000

	drawLocal := func() (int, int, bool) {
		u := r.Intn(n)
		// Random walk of length <= HopRadius from u.
		v := u
		steps := 1 + r.Intn(cfg.HopRadius)
		for s := 0; s < steps; s++ {
			adj := g.Adj(v)
			if len(adj) == 0 {
				return 0, 0, false
			}
			v = int(adj[r.Intn(len(adj))].To)
		}
		return u, v, u != v
	}

	for len(edges) < cfg.Count {
		attempts++
		if attempts > maxAttempts {
			return nil, fmt.Errorf("gen: Stream could not find %d fresh pairs (graph too dense?)", cfg.Count)
		}
		var u, v int
		var ok bool
		if cfg.Kind == StreamLocal {
			u, v, ok = drawLocal()
			if !ok {
				continue
			}
		} else {
			u, v = r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
		}
		key := graph.KeyOf(u, v)
		if used[key] || g.HasEdge(u, v) {
			continue
		}
		used[key] = true
		edges = append(edges, graph.Edge{U: u, V: v, W: meanW * r.Range(cfg.WeightLo, cfg.WeightHi)})
	}

	// Partition into batches.
	out := make([][]graph.Edge, cfg.Batches)
	per := (len(edges) + cfg.Batches - 1) / cfg.Batches
	for b := 0; b < cfg.Batches; b++ {
		lo := b * per
		hi := lo + per
		if lo > len(edges) {
			lo = len(edges)
		}
		if hi > len(edges) {
			hi = len(edges)
		}
		out[b] = edges[lo:hi]
	}
	return out, nil
}
