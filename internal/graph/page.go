package graph

import "sync/atomic"

// Paged storage. A graph keeps its edges in fixed-size edge pages and its
// per-node adjacency headers in fixed-size node pages, each behind a table
// of page pointers. Snapshot copies the two tables, so the snapshot and the
// graph share every page; a mutation then copies only the pages it writes
// (Driscoll, Sarnak, Sleator and Tarjan's path copying, with a page as the
// node). The arc arrays the headers point to are never copied by a
// snapshot: they are append-only, and each has exactly one graph allowed to
// extend it in place, past the lengths every sharer reads.
//
// Two stamps on every page decide who may do what:
//
//   - owner is the epoch of the graph that may write the page in place.
//     Snapshot resets a graph's epoch to zero and its next mutation draws a
//     fresh one, which marks every page it held as shared in O(1).
//   - appender is the id of the graph that may extend, in place, the arc
//     arrays a node page's headers point to, and that may append edges
//     into an edge page's unused tail. Slots at or past a graph's length
//     are read by no graph that shares the page: a snapshot's lengths are
//     frozen at most at its origin's, and every other graph copies a page
//     before its first write to it.
//
// A graph returned by Snapshot has neither an epoch nor an id until it is
// first mutated; a page it copies from its origin stamps its own id, and the
// arc lists of such a node page move to an arena of its own (see
// copyNodePage), so its appends never land in storage the origin extends.
// When the origin copies a node page, the lists it keeps in place need
// capacity to spare, or each one's next append reallocates it alone: its
// full lists move to one arena with headroom too.

// Page sizes, as shifts. A one-edge write copies one edge page and up to two
// node pages; a Snapshot copies one pointer per page.
const (
	edgePageShift = 8
	nodePageShift = 8

	edgePageSize = 1 << edgePageShift
	nodePageSize = 1 << nodePageShift
	edgePageMask = edgePageSize - 1
	nodePageMask = nodePageSize - 1
)

// edge32 is the stored form of an Edge: the node limit lets both endpoints
// fit in an int32, so a record takes 16 bytes instead of Edge's 24.
type edge32 struct {
	U, V int32
	W    float64
}

// edge widens a stored record to an Edge.
func (e edge32) edge() Edge { return Edge{U: int(e.U), V: int(e.V), W: e.W} }

// edgePage holds edges [k·edgePageSize, (k+1)·edgePageSize) of a graph.
type edgePage struct {
	owner, appender uint64
	e               [edgePageSize]edge32
}

// nodePage holds the adjacency headers of nodes [k·nodePageSize,
// (k+1)·nodePageSize). Headers of nodes at or past a graph's node count are
// nil in every page that graph can reach.
type nodePage struct {
	owner, appender uint64
	adj             [nodePageSize][]Arc
}

// epochs hands out graph epochs and ids; zero is never issued.
var epochs atomic.Uint64

// pagesFor returns how many pages of 1<<shift slots hold count slots.
func pagesFor(count, shift int) int { return (count + 1<<shift - 1) >> shift }

// own gives g an epoch (and, on its first mutation, an id) so the pages it
// creates or copies from now on are its to write.
func (g *Graph) own() {
	if g.epoch == 0 {
		g.epoch = epochs.Add(1)
		if g.id == 0 {
			g.id = g.epoch
		}
	}
}

// carveEdgePages returns count empty edge pages carved from one backing
// array, stamped as g's.
func (g *Graph) carveEdgePages(count int) []*edgePage {
	if count == 0 {
		return nil
	}
	backing := make([]edgePage, count)
	tbl := make([]*edgePage, count)
	for k := range backing {
		backing[k].owner, backing[k].appender = g.epoch, g.id
		tbl[k] = &backing[k]
	}
	return tbl
}

// carveNodePages is carveEdgePages for node pages.
func (g *Graph) carveNodePages(count int) []*nodePage {
	if count == 0 {
		return nil
	}
	backing := make([]nodePage, count)
	tbl := make([]*nodePage, count)
	for k := range backing {
		backing[k].owner, backing[k].appender = g.epoch, g.id
		tbl[k] = &backing[k]
	}
	return tbl
}

// adjHeadroom sets the spare capacity of a carved adjacency list: a list of
// d arcs gets room for d/adjHeadroom+1 more before append reallocates it.
const adjHeadroom = 4

// carveLists points header(i), for i in [0, count), at an empty span of one
// new arena with room for deg(i) arcs plus headroom. Each span is a
// three-index slice, so an append past its capacity reallocates that list
// alone and never writes into a neighbour's span.
func carveLists(count int, deg func(i int) int, header func(i int) *[]Arc) {
	capOf := func(i int) int { d := deg(i); return d + d/adjHeadroom + 1 }
	total := 0
	for i := 0; i < count; i++ {
		total += capOf(i)
	}
	arena := make([]Arc, total)
	for i := 0; i < count; i++ {
		c := capOf(i)
		*header(i) = arena[:0:c]
		arena = arena[c:]
	}
}

// edgePageFor returns page k of g's edges, ready for a write to slot
// slot. A page g owns is written in place. A page g appends into is too
// when slot is past every sharer's edge count, which holds for any slot at
// or past g's own count. Any other page is copied first.
func (g *Graph) edgePageFor(k, slot int) *edgePage {
	if k == len(g.epages) {
		p := &edgePage{owner: g.epoch, appender: g.id}
		g.epages = append(g.epages, p)
		return p
	}
	p := g.epages[k]
	if p.owner == g.epoch || (p.appender == g.id && k<<edgePageShift+slot >= g.m) {
		return p
	}
	// Copy only the slots g can see: the appender may be filling the rest.
	c := &edgePage{owner: g.epoch, appender: g.id}
	copy(c.e[:], p.e[:min(edgePageSize, g.m-k<<edgePageShift)])
	g.epages[k] = c
	return c
}

// header returns a pointer to node u's adjacency header in a page g may
// write, copying the page first if it is shared.
func (g *Graph) header(u int) *[]Arc {
	k := u >> nodePageShift
	p := g.npages[k]
	if p.owner != g.epoch {
		p = g.copyNodePage(k)
	}
	return &p.adj[u&nodePageMask]
}

// copyNodePage replaces g's node page k by a copy g owns. If g is the
// page's appender, the copied headers keep their capacity and g goes on
// appending in place, except that full lists, whose next append would
// reallocate each on its own, move to one new arena with headroom. If g is
// not, another graph may extend those arc arrays past the lengths g sees,
// so every list of the page moves to a new arena of g's own before g
// appends to any of them.
func (g *Graph) copyNodePage(k int) *nodePage {
	old := g.npages[k]
	p := &nodePage{owner: g.epoch, appender: g.id, adj: old.adj}
	var move [nodePageSize]uint16
	nm := 0
	for i, l := range p.adj[:min(nodePageSize, g.n-k<<nodePageShift)] {
		if old.appender != g.id || (len(l) > 0 && len(l) == cap(l)) {
			move[nm] = uint16(i)
			nm++
		}
	}
	if nm > 0 {
		carveLists(nm, func(j int) int { return len(old.adj[move[j]]) }, func(j int) *[]Arc { return &p.adj[move[j]] })
		for _, i := range move[:nm] {
			p.adj[i] = append(p.adj[i], old.adj[i]...)
		}
	}
	g.npages[k] = p
	return p
}
