package sketch

import (
	"slices"
	"testing"
	"testing/quick"

	"ingrass/internal/graph"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/vecmath"
)

func randomConnected(seed uint64, n, extra int) *graph.Graph {
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
	return g
}

// Property: on any random connected graph and at any level, every
// sparsifier edge is indexed exactly once: in the pair list of its clusters
// if it crosses two, otherwise in the span of the one cluster holding it.
func TestEveryEdgeIndexedOnceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 30, 45)
		d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		for l := 1; l < d.Levels; l++ {
			s, err := New(d, g)
			if err != nil {
				return false
			}
			s.Index(l)
			counts := make([]int, g.NumEdges())
			pairs := map[uint64]bool{}
			clusters := map[int32]bool{}
			for u := range d.N {
				if c := d.ClusterID(l, u); !clusters[c] {
					clusters[c] = true
					for _, ei := range s.IntraClusterEdges(u) {
						counts[ei]++
					}
				}
				for v := range d.N {
					cu, cv := d.ClusterID(l, u), d.ClusterID(l, v)
					if k := pairKey(cu, cv); cu != cv && !pairs[k] {
						pairs[k] = true
						for _, ei := range s.PairEdges(u, v) {
							counts[ei]++
						}
					}
				}
			}
			for _, c := range counts {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: registering an edge then querying its endpoints' pair at any
// level below its shared level lists it last, and every listed edge
// connects the same cluster pair.
func TestRegisterQueryRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 25, 30)
		d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		levels := make([]*Structure, d.Levels)
		for l := 1; l < d.Levels; l++ {
			if levels[l], err = New(d, g); err != nil {
				return false
			}
			levels[l].Index(l)
		}
		r := vecmath.NewRNG(seed ^ 0x8)
		for k := 0; k < 10; k++ {
			u, v := r.Intn(25), r.Intn(25)
			if u == v {
				continue
			}
			ei := g.AddEdge(u, v, r.Range(0.5, 2))
			for l := 1; l < d.Levels; l++ {
				levels[l].Register(ei)
			}
			shared := d.SharedLevel(u, v)
			for l := 1; l < shared; l++ {
				es := levels[l].PairEdges(u, v)
				if len(es) == 0 || es[len(es)-1] != int32(ei) {
					return false
				}
				for _, x := range es {
					e := g.Edge(int(x))
					if pairKey(d.ClusterID(l, e.U), d.ClusterID(l, e.V)) !=
						pairKey(d.ClusterID(l, u), d.ClusterID(l, v)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// reference is level l's index built from the decomposition and h alone,
// the way the definition reads: pair lists by a scan of the edges in index
// order, and each cluster's span by recursive descent of the containment
// tree, own edges first, children in order of their lowest node id.
type reference struct {
	pairs map[uint64][]int32
	spans [][]int32 // by level-l cluster
}

func newReference(d *lrd.Decomposition, h *graph.Graph, l int) reference {
	ref := reference{pairs: map[uint64][]int32{}, spans: make([][]int32, d.NumClusters[l])}
	// own[k][c] holds the edges whose endpoints first share a cluster at
	// level k, in cluster c.
	own := make([][][]int32, l+1)
	for k := 1; k <= l; k++ {
		own[k] = make([][]int32, d.NumClusters[k])
	}
	for ei, e := range h.All() {
		if cu, cv := d.ClusterID(l, e.U), d.ClusterID(l, e.V); cu != cv {
			ref.pairs[pairKey(cu, cv)] = append(ref.pairs[pairKey(cu, cv)], int32(ei))
			continue
		}
		for k := 1; k <= l; k++ {
			if c := d.ClusterID(k, e.U); c == d.ClusterID(k, e.V) {
				own[k][c] = append(own[k][c], int32(ei))
				break
			}
		}
	}
	// children[k][c] lists the level-(k-1) clusters inside level-k cluster
	// c by lowest node id.
	children := make([][][]int32, l+1)
	for k := 2; k <= l; k++ {
		children[k] = make([][]int32, d.NumClusters[k])
		first := make([]int, d.NumClusters[k-1])
		for i := range first {
			first[i] = d.N
		}
		for v := d.N - 1; v >= 0; v-- {
			first[d.ClusterID(k-1, v)] = v
		}
		for child, v := range first {
			p := d.ClusterID(k, v)
			children[k][p] = append(children[k][p], int32(child))
		}
		for _, cs := range children[k] {
			slices.SortFunc(cs, func(a, b int32) int { return first[a] - first[b] })
		}
	}
	var descend func(k int, c int32) []int32
	descend = func(k int, c int32) []int32 {
		out := slices.Clone(own[k][c])
		if k >= 2 {
			for _, child := range children[k][c] {
				out = append(out, descend(k-1, child)...)
			}
		}
		return out
	}
	for c := range ref.spans {
		ref.spans[c] = descend(l, int32(c))
	}
	return ref
}

// Property: indexing a level late gives, element for element, the index
// that keeping it current from the start gives. Per level, three structures
// see the same registration stream: one indexed before it, one after it,
// and one midway, between an edge's append and its registration. All three
// must list the same edges, in the same order, for every cluster pair, and
// the same spans for every cluster.
func TestLazyPairLevelsEqualEagerProperty(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 40
		g := randomConnected(seed, n, 50)
		d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		var eager, lazy, mid []*Structure
		for range d.Levels {
			for _, ss := range []*[]*Structure{&eager, &lazy, &mid} {
				s, err := New(d, g)
				if err != nil {
					return false
				}
				*ss = append(*ss, s)
			}
		}
		for l := 1; l < d.Levels; l++ {
			eager[l].Index(l)
		}
		r := vecmath.NewRNG(seed ^ 0x5)
		const stream = 60
		for k := range stream {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			ei := g.AddEdge(u, v, r.Range(0.5, 2))
			if k == stream/2 {
				// Between AddEdge and Register: the build must skip ei.
				for l := 1; l < d.Levels; l++ {
					mid[l].Index(l)
				}
			}
			for l := 1; l < d.Levels; l++ {
				for _, s := range []*Structure{eager[l], lazy[l], mid[l]} {
					s.Register(ei)
				}
			}
		}
		for l := 1; l < d.Levels; l++ {
			lazy[l].Index(l)
			for _, s := range []*Structure{lazy[l], mid[l]} {
				for u := range n {
					if !slices.Equal(s.IntraClusterEdges(u), eager[l].IntraClusterEdges(u)) {
						return false
					}
					for v := range n {
						if !slices.Equal(s.PairEdges(u, v), eager[l].PairEdges(u, v)) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: at every level, a structure indexed at any point of a stream
// of registrations answers every query as the reference built from the
// decomposition and H alone does: its spans are the recursive descent, its
// pair lists a scan of H. The stream mixes random edges with edges
// inside one cluster of a random level, so registrations land inside
// clusters of levels already indexed (the delete-path promotion and swap
// catch-up case) and must make the spans rebuild. One structure per level
// is indexed at a random step, sometimes between an edge's append and its
// registration, which the build must skip.
func TestIntraSpansEqualDescentProperty(t *testing.T) {
	internal := 0
	f := func(seed uint64) bool {
		const n = 40
		g := randomConnected(seed, n, 50)
		d, err := lrd.Build(g, lrd.Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		r := vecmath.NewRNG(seed ^ 0x11)
		const stream = 60
		levels := make([]*Structure, d.Levels)
		at := make([]int, d.Levels) // the step at which level l is indexed
		for l := 1; l < d.Levels; l++ {
			if levels[l], err = New(d, g); err != nil {
				return false
			}
			at[l] = r.Intn(stream + 1)
		}
		check := func(l int) bool {
			s := levels[l]
			if s.Level() != l {
				return true
			}
			ref := newReference(d, g, l)
			for u := range n {
				if !slices.Equal(s.IntraClusterEdges(u), ref.spans[d.ClusterID(l, u)]) {
					return false
				}
				for v := range n {
					cu, cv := d.ClusterID(l, u), d.ClusterID(l, v)
					if s.SameCluster(u, v) != (cu == cv) || !slices.Equal(s.PairEdges(u, v), ref.pairs[pairKey(cu, cv)]) {
						return false
					}
				}
			}
			return true
		}
		for k := 0; k <= stream; k++ {
			for l := 1; l < d.Levels; l++ {
				if at[l] == k && (k == stream || r.Intn(2) == 0) {
					levels[l].Index(l)
				}
			}
			if k == stream {
				break
			}
			u, v := r.Intn(n), r.Intn(n)
			if k%2 == 0 {
				// A partner inside u's cluster at a random level, when it
				// has one.
				lv := 1 + r.Intn(d.Levels-1)
				for w := 0; w < n; w++ {
					if w != u && d.ClusterID(lv, w) == d.ClusterID(lv, u) {
						v = w
						break
					}
				}
			}
			if u == v {
				v = (u + 1) % n
			}
			ei := g.AddEdge(u, v, r.Range(0.5, 2))
			for l := 1; l < d.Levels; l++ {
				if at[l] == k && levels[l].Level() == 0 {
					// Between AddEdge and Register: the build must skip ei.
					levels[l].Index(l)
				}
				if levels[l].Level() == l && levels[l].SameCluster(u, v) {
					internal++
				}
				levels[l].Register(ei)
				if r.Intn(3) == 0 && !check(l) {
					return false
				}
			}
		}
		for l := 1; l < d.Levels; l++ {
			if !check(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if internal == 0 {
		t.Fatal("no registration landed inside a cluster of an indexed level; the stream exercises no span rebuild")
	}
}
