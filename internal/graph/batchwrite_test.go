package graph

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ingrass/internal/vecmath"
)

// twinKinds are the graphs the batched writers are checked on: a fresh
// graph, a Clone, the origin of a Snapshot and a graph Snapshot returned.
// twin builds one of them from a seeded random graph; calling it twice with
// the same seed builds two graphs with identical contents, and frozen is
// the other side of the snapshot, if any, which later writes must not
// change.
var twinKinds = []string{"fresh", "clone", "origin", "snapshot"}

func twin(kind string, seed uint64, nodes, edges int) (g, frozen *Graph) {
	r := vecmath.NewRNG(seed)
	base := New(nodes, r.Intn(2*edges))
	for base.NumEdges() < edges {
		if u, v := r.Intn(nodes), r.Intn(nodes); u != v {
			base.AddEdge(u, v, r.Range(0.5, 4))
		}
	}
	switch kind {
	case "fresh":
		return base, nil
	case "clone":
		return base.Clone(), nil
	case "origin":
		return base, base.Snapshot()
	default:
		return base.Snapshot(), base
	}
}

// frozenCheck verifies frozen graphs against their references from another
// goroutine while the writer goes on, so under -race it also checks that a
// batched write reaches no page a snapshot reader sees.
type frozenCheck struct {
	t  *testing.T
	wg sync.WaitGroup
	// all holds every frozen graph so far, re-checked at the end.
	all []tracked
}

func (c *frozenCheck) add(g *Graph) {
	if g == nil {
		return
	}
	x := tracked{g, flatOf(g)}
	c.all = append(c.all, x)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for range 3 {
			if d := x.ref.diff(x.g); d != "" {
				c.t.Errorf("frozen graph changed: %s", d)
				return
			}
		}
	}()
}

func (c *frozenCheck) finish() {
	c.wg.Wait()
	for _, x := range c.all {
		if d := x.ref.diff(x.g); d != "" {
			c.t.Fatalf("frozen graph changed: %s", d)
		}
	}
}

// TestAddEdgesMatchesAddEdgeLoop checks AddEdges against a loop of AddEdge
// calls on twin graphs of every kind, bit for bit: edge records, every
// adjacency list, NumEdges and the TotalWeight bits. Batches cross edge-page
// boundaries (up to 700 edges on 256-edge pages) and hit all node pages,
// half their endpoints from a few hot nodes so lists take several arcs per
// batch; a node added between batches opens a new node page. Between
// batches both twins are snapshotted again, so each batch writes to pages it
// shares, and every snapshot taken must stay as it was.
func TestAddEdgesMatchesAddEdgeLoop(t *testing.T) {
	const (
		nodes = 767 // three node pages; the first AddNode opens a fourth
		edges = 600
		hot   = 12
	)
	for _, kind := range twinKinds {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				a, fa := twin(kind, seed, nodes, edges)
				b, fb := twin(kind, seed, nodes, edges)
				check := &frozenCheck{t: t}
				check.add(fa)
				check.add(fb)
				r := vecmath.NewRNG(seed + 100)
				for round := 0; round < 6; round++ {
					n := a.NumNodes()
					node := func() int {
						if r.Intn(2) == 0 {
							return r.Intn(hot)
						}
						return r.Intn(n)
					}
					batch := make([]Edge, 0, r.Intn(700))
					for len(batch) < cap(batch) {
						if u, v := node(), node(); u != v {
							batch = append(batch, Edge{U: u, V: v, W: r.Range(0.5, 4)})
						}
					}
					a.AddEdges(batch)
					for _, e := range batch {
						b.AddEdge(e.U, e.V, e.W)
					}
					if d := flatOf(b).diff(a); d != "" {
						t.Fatalf("round %d, %d edges: %s", round, len(batch), d)
					}
					if err := a.Validate(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					a.AddNode()
					b.AddNode()
					if round%2 == 0 {
						check.add(a.Snapshot())
						check.add(b.Snapshot())
					} else {
						check.add(a.Snapshot())
						a = a.Snapshot()
						b = b.Snapshot()
					}
				}
				check.finish()
			})
		}
	}
}

// TestAddEdgesValidatesFirst: a batch whose last edge is invalid panics
// with AddEdge's message for that edge and changes nothing, not even by
// the valid edges before it.
func TestAddEdgesValidatesFirst(t *testing.T) {
	good := Edge{U: 0, V: 1, W: 1}
	for _, bad := range []Edge{
		{U: 0, V: 9, W: 1},
		{U: -1, V: 2, W: 1},
		{U: 2, V: 2, W: 1},
		{U: 1, V: 2, W: 0},
		{U: 1, V: 2, W: math.Inf(1)},
		{U: 1, V: 2, W: math.NaN()},
	} {
		g := New(4, 0)
		g.AddEdge(2, 3, 1)
		ref := flatOf(g)
		want := panicText(func() { New(4, 0).AddEdge(bad.U, bad.V, bad.W) })
		got := panicText(func() { g.AddEdges([]Edge{good, good, bad}) })
		if want == "" || got != want {
			t.Errorf("%+v: AddEdges panicked with %q, AddEdge with %q", bad, got, want)
		}
		if d := ref.diff(g); d != "" {
			t.Errorf("%+v: a rejected batch changed the graph: %s", bad, d)
		}
	}
}

// panicText runs f and returns the text it panicked with, "" if none.
func panicText(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// scaleLoop is the weight spread SpreadWeight replaced: the weights summed in
// idx order, then each edge scaled by 1 + w/sum through SetWeight.
func scaleLoop(g *Graph, idx []int32, w float64) bool {
	var total float64
	for _, i := range idx {
		total += g.Edge(int(i)).W
	}
	if total <= 0 {
		return false
	}
	factor := 1 + w/total
	for _, i := range idx {
		g.SetWeight(int(i), g.Edge(int(i)).W*factor)
	}
	return true
}

// TestSpreadWeightMatchesScaleLoop checks SpreadWeight against scaleLoop on
// twin graphs of every kind, bit for bit, with index lists spread over all
// edge pages (repeats included); between spreads both twins are snapshotted
// again, so spreads write to shared pages, and every snapshot taken must
// stay as it was. An empty list spreads nothing and returns false.
func TestSpreadWeightMatchesScaleLoop(t *testing.T) {
	const nodes, edges = 600, 1100 // five edge pages, the last partly used
	for _, kind := range twinKinds {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				a, fa := twin(kind, seed, nodes, edges)
				b, fb := twin(kind, seed, nodes, edges)
				check := &frozenCheck{t: t}
				check.add(fa)
				check.add(fb)
				r := vecmath.NewRNG(seed + 200)
				for round := 0; round < 40; round++ {
					idx := make([]int32, r.Intn(40))
					for j := range idx {
						idx[j] = int32(r.Intn(edges))
					}
					w := r.Range(0.1, 8)
					if got, want := a.SpreadWeight(idx, w), scaleLoop(b, idx, w); got != want || got != (len(idx) > 0) {
						t.Fatalf("round %d: SpreadWeight returned %v, the loop %v, for %d edges", round, got, want, len(idx))
					}
					if d := flatOf(b).diff(a); d != "" {
						t.Fatalf("round %d: %s", round, d)
					}
					if round%5 == 4 {
						check.add(a.Snapshot())
						check.add(b.Snapshot())
					}
				}
				if err := a.Validate(); err != nil {
					t.Fatal(err)
				}
				check.finish()
			})
		}
	}
}

// TestSpreadWeightRejectsOverflow: a spread that would make a weight
// infinite panics with SetWeight's message.
func TestSpreadWeightRejectsOverflow(t *testing.T) {
	g := New(3, 0)
	g.AddEdge(0, 1, math.MaxFloat64)
	want := panicText(func() { g.Clone().SetWeight(0, math.Inf(1)) })
	got := panicText(func() { g.SpreadWeight([]int32{0}, math.MaxFloat64) })
	if want == "" || got != want {
		t.Fatalf("SpreadWeight panicked with %q, SetWeight with %q", got, want)
	}
}
