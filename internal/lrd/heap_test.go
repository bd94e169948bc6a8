package lrd

import (
	"runtime"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
)

// TestDecompositionRetainedHeap bounds the heap a decomposition keeps after
// Build, on the sparsifier the sketch's retained-heap gate uses: H(0) at
// density 0.10 of a 16,384-node Delaunay mesh, 16 levels. The cluster tree
// (a parent map and a diameter per cluster) retains 310,048–318,544 bytes
// there over six runs (Go 1.24, amd64); the per-node table it replaced, an
// n-length cluster id array per level plus per-cluster sizes, retained
// 1,490,848–1,497,968. A tree that also kept per-cluster sizes would hold
// about 78,000 bytes more than this one and fail the bound too.
func TestDecompositionRetainedHeap(t *testing.T) {
	const bound = 360_000
	g, err := gen.Delaunay(16384, 1)
	if err != nil {
		t.Fatal(err)
	}
	init, err := grass.InitialSparsifier(g, 0.10, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := init.H
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := Build(h, Config{Krylov: krylov.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d levels: %d bytes retained (bound %d)", d.Levels, retained, bound)
	if retained > bound {
		t.Fatalf("a decomposition retains %d bytes, over the bound of %d", retained, bound)
	}
	runtime.KeepAlive(d)
	runtime.KeepAlive(h)
}
