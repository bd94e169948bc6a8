package graph

import "testing"

// buildSized returns a connected graph with exactly n nodes: a ring with
// chords, deterministic in n, plus weight variety so wrong partitions or
// double-written rows cannot cancel out.
func buildSized(n int) *Graph {
	g := New(n, 0)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1, 1+0.001*float64(i%97))
	}
	for i := 0; i+17 < n; i += 13 {
		g.AddEdge(i, i+17, 0.5+0.01*float64(i%31))
	}
	return g
}

// starN is the worst-case nnz skew for row partitioning: node 0 holds half
// of all nonzeros.
func starN(n int) *Graph {
	g := New(n, 0)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i, 1+0.0001*float64(i))
	}
	return g
}

// withEmptyRows adds k isolated nodes (empty CSR rows) after g's nodes.
func withEmptyRows(g *Graph, k int) *Graph {
	out := New(g.NumNodes()+k, 0)
	for _, e := range g.All() {
		out.AddEdge(e.U, e.V, e.W)
	}
	return out
}

// TestNNZPartitionInvariants checks boundary structure and balance: chunks
// cover [0, N) monotonically, and on the star graph no chunk exceeds
// roughly twice the even share of work (the hub row is indivisible, so one
// chunk necessarily carries it).
func TestNNZPartitionInvariants(t *testing.T) {
	for name, g := range map[string]*Graph{
		"ring":  buildSized(10000),
		"star":  starN(10000),
		"empty": withEmptyRows(starN(5000), 5000),
		"tiny":  buildSized(3),
	} {
		csr := NewCSR(g)
		for _, chunks := range []int{1, 2, 5, 8, 64} {
			part := csr.NNZPartition(chunks)
			eff := len(part) - 1
			if part[0] != 0 || part[eff] != csr.N {
				t.Fatalf("%s chunks=%d: bad cover %v", name, chunks, []int{part[0], part[eff]})
			}
			rowWork := func(u int) int { return csr.RowPtr[u+1] - csr.RowPtr[u] + 2 }
			total := csr.SpMVWork()
			for i := 0; i < eff; i++ {
				if part[i+1] < part[i] {
					t.Fatalf("%s chunks=%d: boundary %d decreases", name, chunks, i)
				}
				var work, maxRow int
				for u := part[i]; u < part[i+1]; u++ {
					work += rowWork(u)
					if rowWork(u) > maxRow {
						maxRow = rowWork(u)
					}
				}
				// Each chunk carries at most an even share plus one
				// indivisible row of slack.
				if work > total/eff+maxRow+2 {
					t.Errorf("%s chunks=%d: chunk %d work %d >> share %d",
						name, chunks, i, work, total/eff)
				}
			}
		}
	}
}
