// Package ingrass is an incremental spectral graph sparsification library,
// a from-scratch Go implementation of inGRASS (Aghdaei & Feng, DAC 2024:
// "inGRASS: Incremental Graph Spectral Sparsification via Low-Resistance-
// Diameter Decomposition").
//
// A spectral sparsifier H of a weighted undirected graph G is a much
// sparser graph whose Laplacian quadratic form approximates G's, so linear
// solves, partitioning, and simulation on H stand in for G. When G keeps
// receiving new edges (new wires in a power grid, refined elements in a
// mesh, new links in a network), recomputing H from scratch is wasteful:
// inGRASS updates H in O(log N) time per inserted edge after a one-time
// near-linear setup.
//
// # Quick start
//
//	g := ingrass.NewGraph(4)
//	for _, e := range []ingrass.Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}} {
//		if _, err := g.AddEdge(e.U, e.V, e.W); err != nil { ... }
//	}
//
//	inc, err := ingrass.NewIncremental(g, ingrass.Options{InitialDensity: 0.1})
//	if err != nil { ... }
//	report, err := inc.AddEdges([]ingrass.Edge{{U: 0, V: 2, W: 0.5}})
//	h := inc.Sparsifier() // the maintained sparse graph
//
// The library also exposes the from-scratch GRASS-style sparsifier
// (Sparsify), a relative condition number estimator (ConditionNumber), and
// deterministic generators for the benchmark families used in the paper's
// evaluation (Generate).
//
// For concurrent consumers, Service wraps the incremental sparsifier in a
// long-lived engine: reads (Solve, EffectiveResistance, ConditionNumber,
// SparsifierSnapshot) run against immutable copy-on-write snapshots with
// the preconditioner factorization cached per generation, while writes
// (AddEdges, DeleteEdges) flow through a coalescing asynchronous batcher.
// The same engine backs the HTTP front-end ("ingrass serve").
//
// # Durability
//
// With ServiceOptions.DataDir set, the service persists itself: every
// applied write batch is appended to a write-ahead log before its
// generation becomes visible, and Checkpoint captures the full state
// without stalling traffic. LoadService resumes a data directory at the
// exact generation the previous process reached — checkpoint plus WAL
// replay, no GRASS setup — with bit-identical sparsifier state. See the
// Example named "durability" for the full lifecycle and DESIGN.md for the
// durability invariants.
//
// # Architecture
//
// The public API wraps internal packages, each a self-contained substrate:
// graph storage and CSR kernels (internal/graph), CG/PCG solvers
// (internal/sparse), Krylov resistance embedding (internal/krylov),
// low-resistance-diameter decomposition (internal/lrd), the filter-level
// cluster-connectivity sketch (internal/sketch), spanning trees
// (internal/tree), the GRASS baseline (internal/grass), the inGRASS update
// engine (internal/core), condition-number estimation (internal/cond),
// dataset generation (internal/gen), and the concurrent serving engine
// (internal/service). See DESIGN.md for the full inventory and the
// per-experiment reproduction index.
package ingrass
