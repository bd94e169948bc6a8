package tree

import "math"

// PathOracle answers tree-path effective-resistance queries in O(1) after
// O(N log N) preprocessing, using an Euler tour with a sparse-table range
// minimum query for lowest common ancestors and prefix resistances to the
// root. The tree-path resistance
//
//	R_T(u, v) = res(u) + res(v) - 2 res(lca(u, v))
//
// upper-bounds the graph effective resistance and is the quantity GRASS
// uses to rank off-tree edges by spectral distortion.
type PathOracle struct {
	t *SpanningTree

	euler []int32 // node at each Euler tour position
	first []int32 // first occurrence of each node in the tour (-1 if absent)
	depth []int32 // depth of euler[i]

	// Sparse table: table[k][i] = index (into euler) of the min-depth
	// position in [i, i + 2^k).
	table [][]int32
	log2  []int8

	resToRoot []float64
	comp      []int32 // component id per node
}

// NewPathOracle preprocesses the given spanning forest.
func NewPathOracle(t *SpanningTree) *PathOracle {
	n := t.G.NumNodes()
	o := &PathOracle{
		t:         t,
		first:     make([]int32, n),
		resToRoot: make([]float64, n),
		comp:      make([]int32, n),
	}
	for i := range o.first {
		o.first[i] = -1
	}

	// Children lists from the rooted representation.
	children := make([][]int32, n)
	for _, v := range t.Order {
		if p := t.Parent[v]; p >= 0 {
			children[p] = append(children[p], int32(v))
		}
	}

	// resToRoot and component labels follow the BFS order (parents first).
	for ci, root := range t.Roots {
		o.comp[root] = int32(ci)
		o.resToRoot[root] = 0
	}
	for _, v := range t.Order {
		p := t.Parent[v]
		if p < 0 {
			continue
		}
		o.comp[v] = o.comp[p]
		o.resToRoot[v] = o.resToRoot[p] + 1/t.G.Edge(t.ParentEdge[v]).W
	}

	// Iterative Euler tour per root.
	o.euler = make([]int32, 0, 2*n)
	o.depth = make([]int32, 0, 2*n)
	type frame struct {
		node  int32
		child int
	}
	stack := make([]frame, 0, 64)
	for _, root := range t.Roots {
		stack = append(stack[:0], frame{node: int32(root)})
		o.visit(int32(root))
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.child < len(children[f.node]) {
				c := children[f.node][f.child]
				f.child++
				stack = append(stack, frame{node: c})
				o.visit(c)
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					o.visit(stack[len(stack)-1].node)
				}
			}
		}
	}

	// Sparse table over the Euler depths.
	m := len(o.euler)
	o.log2 = make([]int8, m+1)
	for i := 2; i <= m; i++ {
		o.log2[i] = o.log2[i/2] + 1
	}
	levels := int(o.log2[m]) + 1
	if m == 0 {
		levels = 1
	}
	o.table = make([][]int32, levels)
	base := make([]int32, m)
	for i := range base {
		base[i] = int32(i)
	}
	o.table[0] = base
	for k := 1; k < levels; k++ {
		span := 1 << k
		prev := o.table[k-1]
		cur := make([]int32, m-span+1)
		for i := range cur {
			a, b := prev[i], prev[i+span/2]
			if o.depth[a] <= o.depth[b] {
				cur[i] = a
			} else {
				cur[i] = b
			}
		}
		o.table[k] = cur
	}
	return o
}

func (o *PathOracle) visit(v int32) {
	if o.first[v] == -1 {
		o.first[v] = int32(len(o.euler))
	}
	o.euler = append(o.euler, v)
	o.depth = append(o.depth, int32(o.t.Depth[v]))
}

// LCA returns the lowest common ancestor of u and v in the forest, or -1 if
// they are in different components.
func (o *PathOracle) LCA(u, v int) int {
	if o.comp[u] != o.comp[v] {
		return -1
	}
	if u == v {
		return u
	}
	a, b := o.first[u], o.first[v]
	if a > b {
		a, b = b, a
	}
	k := o.log2[b-a+1]
	i1 := o.table[k][a]
	i2 := o.table[k][b-(1<<k)+1]
	if o.depth[i1] <= o.depth[i2] {
		return int(o.euler[i1])
	}
	return int(o.euler[i2])
}

// Resistance returns the tree-path effective resistance between u and v,
// or +Inf when they lie in different components of the forest.
func (o *PathOracle) Resistance(u, v int) float64 {
	if u == v {
		return 0
	}
	l := o.LCA(u, v)
	if l < 0 {
		return math.Inf(1)
	}
	return o.resToRoot[u] + o.resToRoot[v] - 2*o.resToRoot[l]
}
