package lrd

import (
	"math"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/krylov"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

func grid(r, c int) *graph.Graph {
	g := graph.New(r*c, 2*r*c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1), 1)
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return g
}

func twoCommunities() *graph.Graph {
	// Two dense 10-cliques joined by a single weak bridge: the natural
	// 2-cluster structure that LRD should find early.
	g := graph.New(20, 100)
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			g.AddEdge(a, b, 10)
			g.AddEdge(10+a, 10+b, 10)
		}
	}
	g.AddEdge(0, 10, 0.01)
	return g
}

func TestBuildBasicHierarchy(t *testing.T) {
	g := grid(8, 8)
	d, err := Build(g, Config{Krylov: krylov.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 64 || d.Levels < 2 {
		t.Fatalf("levels=%d n=%d", d.Levels, d.N)
	}
	// Level 0 is singletons.
	if d.NumClusters[0] != 64 || d.MaxClusterSize[0] != 1 {
		t.Fatalf("level 0: %d clusters, max size %d", d.NumClusters[0], d.MaxClusterSize[0])
	}
	// Top level merges the connected graph into one cluster.
	top := d.Levels - 1
	if d.NumClusters[top] != 1 {
		t.Fatalf("top level has %d clusters", d.NumClusters[top])
	}
	// Cluster counts are non-increasing.
	for l := 1; l < d.Levels; l++ {
		if d.NumClusters[l] > d.NumClusters[l-1] {
			t.Fatalf("cluster count increased at level %d: %v", l, d.NumClusters)
		}
	}
	// Sizes at each level sum to N.
	for l := 0; l < d.Levels; l++ {
		var sum int32
		for _, s := range clusterSizes(d, l) {
			sum += s
		}
		if int(sum) != 64 {
			t.Fatalf("level %d sizes sum to %d", l, sum)
		}
	}
}

// clusterSizes counts the nodes of each level-l cluster from Labels.
func clusterSizes(d *Decomposition, l int) []int32 {
	size := make([]int32, d.NumClusters[l])
	for _, c := range d.Labels(l) {
		size[c]++
	}
	return size
}

func TestHierarchyIsNested(t *testing.T) {
	g := grid(10, 10)
	d, err := Build(g, Config{Krylov: krylov.Config{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// If two nodes share a cluster at level l, they share one at l+1.
	r := vecmath.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		p, q := r.Intn(100), r.Intn(100)
		for l := 1; l+1 < d.Levels; l++ {
			if d.ClusterID(l, p) == d.ClusterID(l, q) &&
				d.ClusterID(l+1, p) != d.ClusterID(l+1, q) {
				t.Fatalf("nesting violated for (%d,%d) at level %d", p, q, l)
			}
		}
	}
}

func TestSharedLevelAndEmbedding(t *testing.T) {
	g := grid(6, 6)
	d, err := Build(g, Config{Krylov: krylov.Config{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if d.SharedLevel(5, 5) != 0 {
		t.Fatal("same node shares at level 0")
	}
	l := d.SharedLevel(0, 35)
	if l <= 0 || l >= d.Levels {
		t.Fatalf("corner nodes share at level %d", l)
	}
	ev := d.EmbeddingVector(7)
	if len(ev) != d.Levels || ev[0] != 7 {
		t.Fatalf("embedding vector %v", ev)
	}
	// Embedding vectors agree with ClusterID.
	for lv := 0; lv < d.Levels; lv++ {
		if ev[lv] != d.ClusterID(lv, 7) {
			t.Fatal("embedding vector inconsistent")
		}
	}
}

func TestResistanceBoundIsUpperBound(t *testing.T) {
	g := grid(6, 6)
	d, err := Build(g, Config{Krylov: krylov.Config{Seed: 5, Order: 20, Starts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	lap := sparse.DenseLaplacian(g)
	b := make([]float64, 36)
	r := vecmath.NewRNG(6)
	violations := 0
	trials := 0
	for trial := 0; trial < 40; trial++ {
		p, q := r.Intn(36), r.Intn(36)
		if p == q {
			continue
		}
		trials++
		vecmath.Basis(b, p, q)
		x, err := vecmath.PseudoInverseApply(lap, b)
		if err != nil {
			t.Fatal(err)
		}
		exact := x[p] - x[q]
		bound := d.ResistanceEstimate(p, q)
		if math.IsInf(bound, 1) {
			t.Fatalf("connected pair (%d,%d) got infinite bound", p, q)
		}
		// The bound uses ESTIMATED resistances, so it is approximate; allow
		// occasional mild violations but not systematic ones.
		if exact > bound*1.5 {
			violations++
		}
	}
	if violations > trials/5 {
		t.Fatalf("resistance bound violated too often: %d/%d", violations, trials)
	}
}

func TestCommunityStructureDetected(t *testing.T) {
	g := twoCommunities()
	d, err := Build(g, Config{Krylov: krylov.Config{Seed: 7, Order: 16}})
	if err != nil {
		t.Fatal(err)
	}
	// At some intermediate level, the two cliques should be separate
	// clusters: nodes within a clique co-clustered before the bridge merges
	// them.
	foundSplit := false
	for l := 1; l < d.Levels-1; l++ {
		if d.ClusterID(l, 0) == d.ClusterID(l, 5) && // same clique together
			d.ClusterID(l, 10) == d.ClusterID(l, 15) &&
			d.ClusterID(l, 0) != d.ClusterID(l, 10) { // cliques apart
			foundSplit = true
			break
		}
	}
	if !foundSplit {
		t.Fatal("LRD failed to separate the two communities at any level")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := graph.New(6, 4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	d, err := Build(g, Config{Krylov: krylov.Config{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if d.SharedLevel(0, 3) != -1 {
		t.Fatal("cross-component nodes must never share a cluster")
	}
	if !math.IsInf(d.ResistanceEstimate(0, 5), 1) {
		t.Fatal("cross-component bound must be +Inf")
	}
	if d.SharedLevel(0, 2) < 0 {
		t.Fatal("same-component nodes must share a cluster")
	}
}

func TestFilterLevel(t *testing.T) {
	g := grid(8, 8)
	d, err := Build(g, Config{Krylov: krylov.Config{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	// Large target: deep level allowed; tiny target: level 1.
	deep := d.FilterLevel(1e9)
	shallow := d.FilterLevel(2.0)
	if deep < shallow {
		t.Fatalf("deep=%d < shallow=%d", deep, shallow)
	}
	if shallow < 1 || deep >= d.Levels {
		t.Fatalf("levels out of range: deep=%d shallow=%d", deep, shallow)
	}
	// The chosen level respects the C/2 cluster-size cap when possible.
	c := 16.0
	l := d.FilterLevel(c)
	if l > 1 && float64(d.MaxClusterSize[l]) > c/2 {
		t.Fatalf("filter level %d has max cluster %d > %v", l, d.MaxClusterSize[l], c/2)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(graph.New(0, 0), Config{}); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestSingleNodeGraph(t *testing.T) {
	g := graph.New(1, 0)
	d, err := Build(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Levels != 1 || d.NumClusters[0] != 1 {
		t.Fatalf("single node: levels=%d clusters=%v", d.Levels, d.NumClusters)
	}
}

func TestDeterminism(t *testing.T) {
	g := grid(7, 7)
	d1, err := Build(g, Config{Krylov: krylov.Config{Seed: 10}})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Build(g, Config{Krylov: krylov.Config{Seed: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Levels != d2.Levels {
		t.Fatal("level counts differ across runs")
	}
	for l := 0; l < d1.Levels; l++ {
		for v := 0; v < d1.N; v++ {
			if d1.ClusterID(l, v) != d2.ClusterID(l, v) {
				t.Fatalf("cluster ids differ at level %d node %d", l, v)
			}
		}
	}
}

func TestDiameterMonotonicity(t *testing.T) {
	// The diameter of the cluster containing v must be non-decreasing as
	// levels grow (merging can only extend the bound).
	g := grid(9, 9)
	d, err := Build(g, Config{Krylov: krylov.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < d.N; v += 7 {
		prev := 0.0
		for l := 1; l < d.Levels; l++ {
			cur := d.Diameter(l, d.ClusterID(l, v))
			if cur < prev-1e-12 {
				t.Fatalf("diameter shrank at level %d for node %d: %v -> %v", l, v, prev, cur)
			}
			prev = cur
		}
	}
}
