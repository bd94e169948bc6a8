package lrd

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"ingrass/internal/graph"
	"ingrass/internal/krylov"
	"ingrass/internal/vecmath"
)

// randomConnected builds a reproducible connected weighted graph.
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

// Property: the hierarchy is laminar — clusters at level l+1 are unions of
// clusters at level l — and cluster counts weakly decrease.
func TestHierarchyLaminarProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 40, 60)
		d, err := Build(g, Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		for l := 0; l+1 < d.Levels; l++ {
			if d.NumClusters[l+1] > d.NumClusters[l] {
				return false
			}
			// Laminar: same cluster at l implies same at l+1. Check via a
			// map from level-l cluster to its level-(l+1) parent.
			parent := make(map[int32]int32)
			for v := 0; v < d.N; v++ {
				c := d.ClusterID(l, v)
				p, ok := parent[c]
				if !ok {
					parent[c] = d.ClusterID(l+1, v)
				} else if p != d.ClusterID(l+1, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: every connected pair shares a cluster at the top level, and the
// resistance bound is finite, positive, and symmetric.
func TestResistanceBoundProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 30, 40)
		d, err := Build(g, Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		r := vecmath.NewRNG(seed ^ 0x123)
		for k := 0; k < 30; k++ {
			p, q := r.Intn(30), r.Intn(30)
			if p == q {
				if d.ResistanceEstimate(p, q) != 0 {
					return false
				}
				continue
			}
			b1 := d.ResistanceEstimate(p, q)
			b2 := d.ResistanceEstimate(q, p)
			if b1 != b2 || b1 <= 0 || b1 != b1 /* NaN */ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: cluster sizes at every level sum to N and match the dense
// renumbering (ids in [0, NumClusters)).
func TestClusterAccountingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 25, 30)
		d, err := Build(g, Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		for l := 0; l < d.Levels; l++ {
			var sum, largest int32
			for _, s := range clusterSizes(d, l) {
				if s <= 0 {
					return false
				}
				sum += s
				largest = max(largest, s)
			}
			if int(sum) != d.N || int(largest) != d.MaxClusterSize[l] {
				return false
			}
			for v := 0; v < d.N; v++ {
				c := d.ClusterID(l, v)
				if c < 0 || int(c) >= d.NumClusters[l] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: SharedLevel is consistent with ClusterID, i.e. it is the first
// level where the ids coincide.
func TestSharedLevelConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 20, 25)
		d, err := Build(g, Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			return false
		}
		r := vecmath.NewRNG(seed ^ 0x456)
		for k := 0; k < 20; k++ {
			p, q := r.Intn(20), r.Intn(20)
			if p == q {
				continue
			}
			l := d.SharedLevel(p, q)
			if l < 0 {
				return false // connected graph: must share eventually
			}
			if d.ClusterID(l, p) != d.ClusterID(l, q) {
				return false
			}
			for ll := 1; ll < l; ll++ {
				if d.ClusterID(ll, p) == d.ClusterID(ll, q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tree queries equal a per-node table built the old way, by
// composing the Up maps level by level: Meet, SharedLevel and
// ResistanceEstimate on every pair, ClusterID, Labels and EmbeddingVector on
// every node. Cluster ids ascend with each cluster's lowest node id, the
// order the sketch's span layout reads the Up maps in. Some graphs have two
// components, so pairs that never meet are covered too.
func TestTreeQueriesMatchPerNodeTableProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 24 + int(seed%17)
		g := randomConnected(seed, n, n)
		if seed%3 == 0 {
			// A second component of 8 nodes, appended past the first.
			h := graph.New(n+8, g.NumEdges()+8)
			for _, e := range g.All() {
				h.AddEdge(e.U, e.V, e.W)
			}
			for v := n + 1; v < n+8; v++ {
				h.AddEdge(v-1, v, 1+float64(v%3))
			}
			g, n = h, n+8
		}
		d, err := Build(g, Config{Krylov: krylov.Config{Seed: seed}})
		if err != nil {
			t.Log(err)
			return false
		}
		table := make([][]int32, d.Levels)
		table[0] = make([]int32, n)
		for v := range table[0] {
			table[0][v] = int32(v)
		}
		for l := 1; l < d.Levels; l++ {
			up := d.Up(l - 1)
			if len(up) != d.NumClusters[l-1] {
				t.Logf("seed %d: level %d parent map has %d entries for %d clusters", seed, l-1, len(up), d.NumClusters[l-1])
				return false
			}
			table[l] = make([]int32, n)
			for v, c := range table[l-1] {
				table[l][v] = up[c]
			}
		}
		for l, row := range table {
			// First-seen order: scanning nodes upward meets ids 0, 1, 2, ...
			next := int32(0)
			for _, c := range row {
				if c == next {
					next++
				} else if c > next {
					t.Logf("seed %d: level %d meets cluster %d before %d", seed, l, c, next)
					return false
				}
			}
			if int(next) != d.NumClusters[l] {
				t.Logf("seed %d: level %d has %d ids, %d clusters", seed, l, next, d.NumClusters[l])
				return false
			}
			if !slices.Equal(d.Labels(l), row) {
				t.Logf("seed %d: Labels(%d) differs from the table", seed, l)
				return false
			}
			for v, c := range row {
				if d.ClusterID(l, v) != c {
					t.Logf("seed %d: ClusterID(%d, %d) = %d, table %d", seed, l, v, d.ClusterID(l, v), c)
					return false
				}
			}
		}
		for v := range n {
			ev := d.EmbeddingVector(v)
			for l := range table {
				if ev[l] != table[l][v] {
					t.Logf("seed %d: EmbeddingVector(%d) = %v differs at level %d", seed, v, ev, l)
					return false
				}
			}
		}
		for p := range n {
			for q := range n {
				wantL, wantC, wantR := -1, int32(-1), math.Inf(1)
				for l := range table {
					if table[l][p] == table[l][q] {
						wantL, wantC, wantR = l, table[l][p], d.Diameter(l, table[l][p])
						break
					}
				}
				l, c := d.Meet(p, q)
				if l != wantL || c != wantC || d.SharedLevel(p, q) != wantL {
					t.Logf("seed %d: Meet(%d, %d) = (%d, %d), SharedLevel %d, table (%d, %d)", seed, p, q, l, c, d.SharedLevel(p, q), wantL, wantC)
					return false
				}
				if r := d.ResistanceEstimate(p, q); r != wantR {
					t.Logf("seed %d: ResistanceEstimate(%d, %d) = %v, table %v", seed, p, q, r, wantR)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
