package graph

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// triMesh returns a side×side grid with one diagonal per cell: interior
// degree 6, like the Delaunay meshes the update path streams into.
func triMesh(side int) *Graph {
	g := New(side*side, 3*side*side)
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.AddEdge(id(r, c), id(r, c+1), 1+float64(c%3))
			}
			if r+1 < side {
				g.AddEdge(id(r, c), id(r+1, c), 1+float64(r%5))
			}
			if r+1 < side && c+1 < side {
				g.AddEdge(id(r, c), id(r+1, c+1), 0.5)
			}
		}
	}
	return g
}

// adjCopy deep-copies every adjacency list of g.
func adjCopy(g *Graph) [][]Arc {
	out := make([][]Arc, g.NumNodes())
	for u := range out {
		out[u] = slices.Clone(g.Adj(u))
	}
	return out
}

// checkAdj fails unless g's first len(want) lists equal want, except node
// skip, whose list must start with want[skip].
func checkAdj(t *testing.T, what string, g *Graph, want [][]Arc, skip int) {
	t.Helper()
	for u := range want {
		got := g.Adj(u)
		if u == skip {
			got = got[:min(len(got), len(want[u]))]
		}
		if !slices.Equal(got, want[u]) {
			t.Fatalf("%s: node %d list changed:\n got  %v\n want %v", what, u, got, want[u])
		}
	}
}

// fillPastHeadroom appends arcs to node u of g until its list has filled
// the headroom left by the last copy and then gone five arcs past it. Each
// new edge leads to a fresh node, so no other original list grows.
func fillPastHeadroom(t *testing.T, g *Graph, u int) {
	t.Helper()
	room := cap(g.Adj(u)) - len(g.Adj(u))
	if room <= 0 {
		t.Fatalf("node %d has no headroom after a copy (len %d, cap %d)", u, len(g.Adj(u)), cap(g.Adj(u)))
	}
	first := &g.Adj(u)[:1][0]
	for i := 0; i < room; i++ {
		g.AddEdge(u, g.AddNode(), 2)
	}
	if &g.Adj(u)[0] != first {
		t.Fatalf("node %d list moved while filling its headroom", u)
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(u, g.AddNode(), 3)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaHeadroomIsolation checks that a copy's adjacency lists share one
// arena without sharing storage: filling one list's headroom and going past
// it leaves every other list, the source graph and any snapshot unchanged.
// The copies are a Clone, and the lists a mutated snapshot moves to an arena
// of its own while its origin goes on appending in place to the same node.
func TestArenaHeadroomIsolation(t *testing.T) {
	const side = 24
	for _, u := range []int{0, side*side/2 + 3, side*side - 2} {
		t.Run(fmt.Sprintf("clone/node=%d", u), func(t *testing.T) {
			g := triMesh(side)
			want := adjCopy(g)
			c := g.Clone()
			fillPastHeadroom(t, c, u)
			checkAdj(t, "clone", c, want, u)
			checkAdj(t, "source", g, want, -1)
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(fmt.Sprintf("snapshot/node=%d", u), func(t *testing.T) {
			g := triMesh(side)
			want := adjCopy(g)
			snap := g.Snapshot()
			v := g.Snapshot()
			v.AddEdge(u^1, v.AddNode(), 7) // moves the lists of u's page to v's arena
			wantV := adjCopy(v)
			fillPastHeadroom(t, v, u)
			g.AddEdge(u, g.AddNode(), 9) // the origin extends u's original list
			checkAdj(t, "live", g, want, u)
			checkAdj(t, "mutated snapshot", v, wantV, u)
			checkAdj(t, "snapshot", snap, want, -1)
			if a, b := &g.Adj(u)[len(want[u])], &v.Adj(u)[len(want[u])]; a == b {
				t.Fatalf("origin and mutated snapshot share node %d's new arc storage", u)
			}
			if snap.NumNodes() != side*side || snap.NumEdges() != len(g.AppendEdges(nil))-1 {
				t.Fatalf("snapshot saw live mutations: %v", snap)
			}
			for _, h := range []*Graph{g, v, snap} {
				if err := h.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// copySink keeps measured copies on the heap, as they are in real use.
var copySink *Graph

// TestCopyAllocationsConstant checks that copying a graph costs the same
// number of allocations at any size. Clone allocates the graph, its edge
// and node page arrays, their two tables and one arc arena. A Snapshot
// allocates the view and its two page tables, and the first AddEdge after
// it copies the one node page holding both endpoints; the edge lands in the
// unused tail of the last edge page and both arcs in list capacity, which
// the live graph extends in place past the snapshot's lengths.
func TestCopyAllocationsConstant(t *testing.T) {
	for _, side := range []int{32, 128} { // 1,024 and 16,384 nodes
		g := triMesh(side)
		if a := testing.AllocsPerRun(5, func() { copySink = g.Clone() }); a != 6 {
			t.Errorf("%d nodes: Clone made %v allocations, want 6", side*side, a)
		}
		// Interior nodes of one row: degree 6 in a list of capacity 8, all
		// in one node page. Each run joins a fresh pair.
		next := side*side/2 + 2
		if a := testing.AllocsPerRun(5, func() {
			copySink = g.Snapshot()
			g.AddEdge(next, next+2, 1)
			next += 3
		}); a != 4 {
			t.Errorf("%d nodes: Snapshot and the first AddEdge after it made %v allocations, want 4", side*side, a)
		}
	}
	copySink = nil
}

// TestCloneRetainedHeap bounds the heap a Clone of a 65,536-node mesh
// (195,585 edges) keeps: its edge pages, node pages, page tables and arc
// arena. With 16-byte edge records it retains 8,875,312–8,913,232 bytes over
// ten runs (Go 1.24, amd64); with 24-byte records, 8 bytes more per edge,
// 10,448,176–10,486,096.
func TestCloneRetainedHeap(t *testing.T) {
	const bound = 9_400_000
	g := triMesh(256)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := g.Clone()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d nodes, %d edges: %d bytes retained (bound %d)", c.NumNodes(), c.NumEdges(), retained, bound)
	if retained > bound {
		t.Fatalf("a clone retains %d bytes, over the bound of %d", retained, bound)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(g)
}
