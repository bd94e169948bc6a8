package graph

// Components labels every node with the index of its connected component
// (0-based, in order of discovery from node 0 upward) and returns the labels
// together with the number of components. Isolated nodes form their own
// components.
func Components(g *Graph) (labels []int, count int) {
	n := g.NumNodes()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = count
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, a := range g.Adj(u) {
				if labels[a.To] == -1 {
					labels[a.To] = count
					queue = append(queue, int(a.To))
				}
			}
		}
		count++
	}
	return labels, count
}

// IsConnected reports whether g has exactly one connected component.
// The empty graph is considered connected.
func IsConnected(g *Graph) bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, c := Components(g)
	return c == 1
}

// BFSOrder returns the nodes reachable from start in breadth-first order,
// along with each node's BFS parent arc (parent[start] = Arc{To: -1}).
// Unreachable nodes do not appear in the order and have parent To == -2.
func BFSOrder(g *Graph, start int) (order []int, parent []Arc) {
	n := g.NumNodes()
	parent = make([]Arc, n)
	for i := range parent {
		parent[i] = Arc{To: -2, Edge: -1}
	}
	parent[start] = Arc{To: -1, Edge: -1}
	order = make([]int, 0, n)
	order = append(order, start)
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, a := range g.Adj(u) {
			if parent[a.To].To == -2 {
				parent[a.To] = Arc{To: int32(u), Edge: a.Edge}
				order = append(order, int(a.To))
			}
		}
	}
	return order, parent
}

// EccentricityFrom returns the unweighted hop distances from start
// (-1 for unreachable nodes) and the maximum distance observed.
func EccentricityFrom(g *Graph, start int) (dist []int, ecc int) {
	n := g.NumNodes()
	dist = make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []int{start}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range g.Adj(u) {
			if dist[a.To] == -1 {
				dist[a.To] = dist[u] + 1
				if dist[a.To] > ecc {
					ecc = dist[a.To]
				}
				queue = append(queue, int(a.To))
			}
		}
	}
	return dist, ecc
}

// LargestComponent returns a graph restricted to the largest connected
// component, together with the mapping old node id -> new node id (-1 for
// dropped nodes). Dataset generators use it to guarantee connected inputs.
func LargestComponent(g *Graph) (*Graph, []int) {
	labels, count := Components(g)
	if count <= 1 {
		id := make([]int, g.NumNodes())
		for i := range id {
			id[i] = i
		}
		return g.Clone(), id
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	remap := make([]int, g.NumNodes())
	next := 0
	for i, l := range labels {
		if l == best {
			remap[i] = next
			next++
		} else {
			remap[i] = -1
		}
	}
	sub := New(next, g.NumEdges())
	for _, e := range g.All() {
		if remap[e.U] >= 0 && remap[e.V] >= 0 {
			sub.AddEdge(remap[e.U], remap[e.V], e.W)
		}
	}
	return sub, remap
}
