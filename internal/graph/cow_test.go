package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ingrass/internal/vecmath"
)

// flatGraph is the reference model for paged copy-on-write: one edge slice
// and one slice per adjacency list, deep-copied on every snapshot.
type flatGraph struct {
	edges []Edge
	adj   [][]Arc
	tw    float64
}

func flatOf(g *Graph) *flatGraph {
	f := &flatGraph{edges: g.AppendEdges(nil), adj: make([][]Arc, g.NumNodes()), tw: g.TotalWeight()}
	for u := range f.adj {
		f.adj[u] = slices.Clone(g.Adj(u))
	}
	return f
}

func (f *flatGraph) clone() *flatGraph {
	c := &flatGraph{edges: slices.Clone(f.edges), adj: make([][]Arc, len(f.adj)), tw: f.tw}
	for u, l := range f.adj {
		c.adj[u] = slices.Clone(l)
	}
	return c
}

// The reference mutators repeat Graph's arithmetic, so the cached total
// weight must match bit for bit.
func (f *flatGraph) addEdge(u, v int, w float64) {
	i := int32(len(f.edges))
	f.edges = append(f.edges, Edge{U: u, V: v, W: w})
	f.adj[u] = append(f.adj[u], Arc{To: int32(v), Edge: i})
	f.adj[v] = append(f.adj[v], Arc{To: int32(u), Edge: i})
	f.tw += w
}

func (f *flatGraph) setWeight(i int, w float64) {
	f.tw += w - f.edges[i].W
	f.edges[i].W = w
}

func (f *flatGraph) spreadWeight(idx []int32, w float64) {
	var total float64
	for _, i := range idx {
		total += f.edges[i].W
	}
	factor := 1 + w/total
	for _, i := range idx {
		f.setWeight(int(i), f.edges[i].W*factor)
	}
}

// diff returns the first difference between g and f, or "".
func (f *flatGraph) diff(g *Graph) string {
	if g.NumNodes() != len(f.adj) || g.NumEdges() != len(f.edges) {
		return fmt.Sprintf("size %d nodes %d edges, want %d and %d", g.NumNodes(), g.NumEdges(), len(f.adj), len(f.edges))
	}
	if math.Float64bits(g.TotalWeight()) != math.Float64bits(f.tw) {
		return fmt.Sprintf("total weight %v, want %v", g.TotalWeight(), f.tw)
	}
	for i, e := range g.All() {
		if e != f.edges[i] || g.Edge(i) != e {
			return fmt.Sprintf("edge %d is %v, want %v", i, e, f.edges[i])
		}
	}
	for u, want := range f.adj {
		if !slices.Equal(g.Adj(u), want) {
			return fmt.Sprintf("node %d list %v, want %v", u, g.Adj(u), want)
		}
	}
	return ""
}

// tracked pairs a graph under test with its reference.
type tracked struct {
	g   *Graph
	ref *flatGraph
}

// TestCOWMatchesFlatReference interleaves random AddEdge, AddEdges,
// SetWeight, SpreadWeight, AddNode, Snapshot, mutations of snapshots and
// Clone over
// graphs spanning several pages, and checks every retained graph against a
// deep copy taken when it was made: a mutation may change only the graph it
// was applied to. Frozen snapshots are handed to reader goroutines that
// traverse, verify and re-snapshot them while the writer goes on, so under
// -race the test also checks that no write reaches a page a reader sees and
// that snapshotting a snapshot writes nothing.
func TestCOWMatchesFlatReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { cowProperty(t, seed) })
	}
}

func cowProperty(t *testing.T, seed uint64) {
	const (
		nodes = 700  // three node pages
		edges = 1500 // six edge pages
		ops   = 2000
		hot   = 24 // endpoints drawn here half the time, so lists collide
		live  = 6  // mutable graphs kept at once
	)
	r := vecmath.NewRNG(seed)
	g := New(nodes, edges)
	for g.NumEdges() < edges {
		if u, v := r.Intn(nodes), r.Intn(nodes); u != v {
			g.AddEdge(u, v, r.Range(0.5, 4))
		}
	}
	mutable := []tracked{{g, flatOf(g)}}
	var frozen []tracked

	// Every reader gets every frozen snapshot, so several goroutines
	// snapshot the same graph at once. Each re-verifies its latest few
	// whenever a new one arrives, and keeps draining after a failure.
	works := make([]chan tracked, max(2, min(4, runtime.GOMAXPROCS(0))))
	var wg sync.WaitGroup
	for r := range works {
		work := make(chan tracked, 64)
		works[r] = work
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recent []tracked
			failed := false
			for tr := range work {
				recent = append(recent, tr)
				if len(recent) > 8 {
					recent = recent[1:]
				}
				for _, x := range recent {
					if failed {
						break
					}
					if d := x.ref.diff(x.g); d != "" {
						t.Errorf("frozen snapshot changed: %s", d)
						failed = true
					} else if d := x.ref.diff(x.g.Snapshot()); d != "" {
						t.Errorf("snapshot of a frozen snapshot differs: %s", d)
						failed = true
					}
				}
			}
		}()
	}
	stop := func() {
		for _, w := range works {
			close(w)
		}
		wg.Wait()
		works = nil
	}
	// A failed check stops the writer; the readers still drain and exit.
	defer func() {
		if works != nil {
			stop()
		}
	}()

	node := func(n int) int {
		if r.Intn(2) == 0 {
			return r.Intn(min(hot, n))
		}
		return r.Intn(n)
	}
	check := func(step int, graphs []tracked) {
		for _, x := range graphs {
			if d := x.ref.diff(x.g); d != "" {
				t.Fatalf("step %d: %s", step, d)
			}
			if err := x.g.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	for step := 0; step < ops; step++ {
		// The first graph is the long-lived origin; the others are mutated
		// snapshots and clones.
		i := 0
		if r.Intn(3) == 0 {
			i = r.Intn(len(mutable))
		}
		x := mutable[i]
		n := x.g.NumNodes()
		switch op := r.Intn(20); {
		case op < 9:
			u, v := node(n), node(n)
			if u == v {
				continue
			}
			w := r.Range(0.5, 4)
			x.g.AddEdge(u, v, w)
			x.ref.addEdge(u, v, w)
		case op < 12:
			e := r.Intn(x.g.NumEdges())
			w := r.Range(0.5, 4)
			x.g.SetWeight(e, w)
			x.ref.setWeight(e, w)
		case op < 13:
			idx := make([]int32, 1+r.Intn(4))
			for j := range idx {
				idx[j] = int32(r.Intn(x.g.NumEdges()))
			}
			w := r.Range(0.5, 4)
			x.g.SpreadWeight(idx, w)
			x.ref.spreadWeight(idx, w)
		case op < 14:
			batch := make([]Edge, 0, 1+r.Intn(32))
			for len(batch) < cap(batch) {
				if u, v := node(n), node(n); u != v {
					batch = append(batch, Edge{U: u, V: v, W: r.Range(0.5, 4)})
				}
			}
			x.g.AddEdges(batch)
			for _, e := range batch {
				x.ref.addEdge(e.U, e.V, e.W)
			}
		case op < 15:
			x.g.AddNode()
			x.ref.adj = append(x.ref.adj, nil)
		case op < 19:
			s := tracked{x.g.Snapshot(), x.ref.clone()}
			if r.Intn(2) == 0 || len(mutable) >= live {
				frozen = append(frozen, s)
				for _, w := range works {
					w <- s
				}
			} else {
				mutable = append(mutable, s)
			}
		default:
			if len(mutable) < live {
				mutable = append(mutable, tracked{x.g.Clone(), x.ref.clone()})
			}
		}
		if step%100 == 99 {
			check(step, mutable)
		}
	}
	stop()
	check(ops, append(mutable, frozen...))
	if len(frozen) == 0 || len(mutable) < 2 {
		t.Fatalf("degenerate run: %d frozen, %d mutable graphs", len(frozen), len(mutable))
	}
}

// writeSink keeps measured snapshots on the heap, as they are in real use.
var writeSink *Graph

// TestWriteAfterSnapshotCopiesPages is the copy-cost gate: a Snapshot
// followed by a one-edge AddEdge and one SetWeight makes the same number
// of allocations on a 1,024-node and a 65,536-node mesh, and their bytes
// differ by no more than the page tables the snapshot copies.
func TestWriteAfterSnapshotCopiesPages(t *testing.T) {
	type cost struct{ allocs, bytes, tables float64 }
	measure := func(side int) cost {
		g := triMesh(side)
		// Each run joins a fresh pair of interior nodes of one row: they
		// share a node page and have list capacity to spare.
		i := 0
		run := func() {
			u := (side/2+i/4)*side + 2 + 6*(i%4)
			writeSink = g.Snapshot()
			g.AddEdge(u, u+2, 1)
			g.SetWeight(i, 2) // an edge on a shared page
			i++
		}
		const runs = 8
		allocs := testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		pages := pagesFor(g.NumEdges(), edgePageShift) + pagesFor(g.NumNodes(), nodePageShift)
		return cost{allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(8 * pages)}
	}
	small, large := measure(32), measure(256)
	t.Logf("1,024 nodes: %+v; 65,536 nodes: %+v", small, large)
	// The view, its two tables, the node page holding both endpoints and
	// the edge page SetWeight writes.
	if small.allocs != 5 || large.allocs != 5 {
		t.Errorf("allocations %v and %v, want 5 at both sizes", small.allocs, large.allocs)
	}
	// Size classes round each table up by at most an eighth.
	if d := large.bytes - small.bytes; d < 0 || d > (large.tables-small.tables)+large.tables/8 {
		t.Errorf("bytes grew by %v from 1,024 to 65,536 nodes; the page tables grew by %v", d, large.tables-small.tables)
	}
	// One 6 KiB node page and one 4 KiB edge page, each rounded up to its
	// size class, plus the view and its tables: 11,616 bytes (Go 1.24).
	if small.bytes > 12<<10 {
		t.Errorf("a one-edge write after a snapshot allocated %v bytes", small.bytes)
	}
	writeSink = nil
}
