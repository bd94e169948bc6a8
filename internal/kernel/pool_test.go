package kernel

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"weak"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// withProcs raises GOMAXPROCS for the duration of a test so pools widen
// beyond this machine's core count and the fork-join machinery actually
// runs multi-worker (widths are otherwise clamped).
func withProcs(t testing.TB, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func grid(rows, cols int) *graph.Graph {
	g := graph.New(rows*cols, 0)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1), 1+0.01*float64(id(r, c)))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c), 1+0.02*float64(id(r, c)))
			}
		}
	}
	return g
}

func fillSin(v []float64, phase float64) {
	for i := range v {
		v[i] = math.Sin(float64(i) + phase)
	}
}

func TestClampWorkers(t *testing.T) {
	withProcs(t, 4)
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {3, 3}, {4, 4}, {5, 4}, {1 << 20, 4},
	} {
		if got := clampWorkers(tc.in); got != tc.want {
			t.Errorf("clampWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if p := Shared(1); p != nil {
		t.Error("Shared(1) must be nil (serial)")
	}
	if p := Shared(0); p != nil {
		t.Error("Shared(0) must be nil (serial)")
	}
	if got := Shared(99).Workers(); got != 4 {
		t.Errorf("Shared(99) width %d, want clamp to 4", got)
	}
	var nilPool *Pool
	if nilPool.Workers() != 1 {
		t.Error("nil pool must report width 1")
	}
	nilPool.Close() // must be a no-op, not a panic
}

func TestSharedPoolIsSingleton(t *testing.T) {
	withProcs(t, 4)
	if Shared(3) != Shared(3) {
		t.Error("Shared must return one pool per width")
	}
	if Shared(2) == Shared(3) {
		t.Error("distinct widths must get distinct pools")
	}
}

// TestPooledSpMVMatchesSerialBitForBit pins the determinism contract: the
// pooled product writes each row from exactly one worker with the same
// per-row accumulation order as the serial kernel, so results are
// bit-identical for every width — including widths that do not divide the
// row count and partitions with heavy nnz skew.
func TestPooledSpMVMatchesSerialBitForBit(t *testing.T) {
	withProcs(t, 16)
	graphs := map[string]*graph.Graph{
		"grid":  grid(70, 70),
		"star":  starGraph(5000),
		"empty": withIsolatedRows(grid(60, 60), 500),
	}
	for name, g := range graphs {
		csr := graph.NewCSR(g)
		x := make([]float64, csr.N)
		fillSin(x, 0.3)
		want := make([]float64, csr.N)
		csr.LapMul(want, x)
		wantAdj := make([]float64, csr.N)
		csr.AdjMul(wantAdj, x)
		for _, workers := range []int{2, 3, 7, 16} {
			p := New(workers)
			part := csr.NNZPartition(p.Workers())
			got := make([]float64, csr.N)
			p.LapMul(csr, part, got, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: LapMul row %d: %v != %v", name, workers, i, got[i], want[i])
				}
			}
			p.AdjMul(csr, part, got, x)
			for i := range wantAdj {
				if got[i] != wantAdj[i] {
					t.Fatalf("%s workers=%d: AdjMul row %d: %v != %v", name, workers, i, got[i], wantAdj[i])
				}
			}
			p.Close()
		}
	}
}

// starGraph is the worst-case nnz skew: one hub row holds half the
// nonzeros, so a row-count partition would give one chunk almost all the
// work.
func starGraph(n int) *graph.Graph {
	g := graph.New(n, 0)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i, 1+0.001*float64(i))
	}
	return g
}

// withIsolatedRows appends k isolated (empty-row) nodes to g.
func withIsolatedRows(g *graph.Graph, k int) *graph.Graph {
	out := graph.New(g.NumNodes()+k, 0)
	for _, e := range g.All() {
		out.AddEdge(e.U, e.V, e.W)
	}
	return out
}

// TestPoolSerialFallbacks checks the three serial bypasses: nil pool,
// partition/width mismatch, and sub-cutover work.
func TestPoolSerialFallbacks(t *testing.T) {
	withProcs(t, 4)
	g := grid(10, 10) // work far below SpMVCutover
	csr := graph.NewCSR(g)
	x := make([]float64, csr.N)
	fillSin(x, 1)
	want := make([]float64, csr.N)
	csr.LapMul(want, x)

	var nilPool *Pool
	got := make([]float64, csr.N)
	nilPool.LapMul(csr, nil, got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("nil pool LapMul mismatch")
		}
	}

	p := New(4)
	defer p.Close()
	p.LapMul(csr, csr.NNZPartition(2), got, x) // wrong partition width: serial
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("mismatched-partition LapMul mismatch")
		}
	}
}

// TestPoolHammerSharedAcrossGoroutines drives 16 goroutines through one
// shared pool concurrently under -race: fork-join operations serialize on
// the pool mutex and every caller must get its own correct result.
func TestPoolHammerSharedAcrossGoroutines(t *testing.T) {
	withProcs(t, 8)
	g := grid(64, 64)
	csr := graph.NewCSR(g)
	p := New(4)
	defer p.Close()
	part := csr.NNZPartition(p.Workers())

	want := func(x []float64) []float64 {
		out := make([]float64, csr.N)
		csr.LapMul(out, x)
		return out
	}

	var wg sync.WaitGroup
	for id := 0; id < 16; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			x := make([]float64, csr.N)
			got := make([]float64, csr.N)
			for it := 0; it < 50; it++ {
				fillSin(x, float64(id*100+it))
				p.LapMul(csr, part, got, x)
				w := want(x)
				for i := range w {
					if got[i] != w[i] {
						t.Errorf("goroutine %d iter %d: row %d mismatch", id, it, i)
						return
					}
				}
				if s := p.Dot(x, x); s <= 0 {
					t.Errorf("goroutine %d: x'x = %v", id, s)
					return
				}
			}
		}(id)
	}
	wg.Wait()
}

// TestPoolAllocationFree is the steady-state allocation contract: once a
// pool exists, forking any kernel allocates nothing.
func TestPoolAllocationFree(t *testing.T) {
	withProcs(t, 4)
	g := grid(100, 100)
	csr := graph.NewCSR(g)
	p := New(4)
	defer p.Close()
	part := csr.NNZPartition(p.Workers())
	n := csr.N
	x := make([]float64, n)
	dst := make([]float64, n)
	r := make([]float64, n)
	ap := make([]float64, n)
	fillSin(x, 0)
	fillSin(r, 1)
	fillSin(ap, 2)

	// Long vectors so the vector kernels take the pooled path.
	big := make([]float64, VecCutover+1)
	big2 := make([]float64, VecCutover+1)
	big3 := make([]float64, VecCutover+1)
	big4 := make([]float64, VecCutover+1)
	fillSin(big, 3)
	fillSin(big2, 4)
	fillSin(big3, 5)
	fillSin(big4, 6)

	if allocs := testing.AllocsPerRun(50, func() {
		p.LapMul(csr, part, dst, x)
		_ = p.Dot(big, big2)
		_, _ = p.Dot2(big, big2, big3)
		_ = p.AXPY2(big, big2, 0.25, big3, big4)
		p.XPBYInto(big, big2, 0.5)
	}); allocs > 0 {
		t.Fatalf("pooled kernels allocate %.2f objects/op, want 0", allocs)
	}
}

// TestPooledVectorKernelsMatchSerial compares the pooled vector kernels to
// their serial counterparts. Element-wise outputs must be bit-identical
// (each index is written by exactly one worker with the same expression);
// reductions may differ only by partial-sum rounding.
func TestPooledVectorKernelsMatchSerial(t *testing.T) {
	withProcs(t, 8)
	n := VecCutover + 777 // odd length: uneven spans
	p := New(5)
	defer p.Close()

	mk := func(phase float64) []float64 {
		v := make([]float64, n)
		fillSin(v, phase)
		return v
	}
	relClose := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*(math.Abs(a)+math.Abs(b)+1)
	}

	a, b2 := mk(0.1), mk(0.2)
	if got, want := p.Dot(a, b2), vecmath.Dot(a, b2); !relClose(got, want) {
		t.Fatalf("Dot %v vs %v", got, want)
	}
	ax, ay := p.Dot2(a, b2, a)
	sx, sy := vecmath.Dot2(a, b2, a)
	if !relClose(ax, sx) || !relClose(ay, sy) {
		t.Fatalf("Dot2 (%v,%v) vs (%v,%v)", ax, ay, sx, sy)
	}

	x1, r1, pv, ap := mk(1), mk(2), mk(3), mk(4)
	x2 := append([]float64(nil), x1...)
	r2 := append([]float64(nil), r1...)
	gotN := p.AXPY2(x1, r1, 0.75, pv, ap)
	wantN := vecmath.AXPY2(x2, r2, 0.75, pv, ap)
	for i := range x1 {
		if x1[i] != x2[i] || r1[i] != r2[i] {
			t.Fatalf("AXPY2 element %d diverged", i)
		}
	}
	if !relClose(gotN, wantN) {
		t.Fatalf("AXPY2 norm %v vs %v", gotN, wantN)
	}

	d1, d2 := mk(5), append([]float64(nil), mk(5)...)
	z := mk(6)
	p.XPBYInto(d1, z, 0.3)
	vecmath.XPBYInto(d2, z, 0.3)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("XPBYInto element %d diverged", i)
		}
	}
}

// BenchmarkPoolDispatchOverhead measures the pure fork-join cost (publish,
// wake, join) with a trivial body — the number the serial cutovers are
// calibrated against.
func BenchmarkPoolDispatchOverhead(b *testing.B) {
	p := New(runtime.GOMAXPROCS(0))
	defer p.Close()
	v := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.mu.Lock()
		p.job = job{x: v, y: v, n: len(v)}
		p.run(dotShare)
		p.mu.Unlock()
	}
}

// BenchmarkPooledSpMV compares the pooled product against serial at the
// width of this machine.
func BenchmarkPooledSpMV(b *testing.B) {
	g := grid(316, 316) // ~100k nodes
	csr := graph.NewCSR(g)
	x := make([]float64, csr.N)
	dst := make([]float64, csr.N)
	fillSin(x, 0)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csr.LapMul(dst, x)
		}
	})
	b.Run("pool", func(b *testing.B) {
		p := Shared(runtime.GOMAXPROCS(0))
		part := csr.NNZPartition(p.Workers())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.LapMul(csr, part, dst, x)
		}
	})
}

// TestPoolReleasesOperandsAfterJoin checks that a pool keeps no reference to
// a finished operation's operands: after one pooled LapMul the CSR is
// collectable while the pool lives on.
func TestPoolReleasesOperandsAfterJoin(t *testing.T) {
	withProcs(t, 2)
	for _, workers := range []int{1, 2} {
		p := New(workers)
		ptr := func() weak.Pointer[graph.CSR] {
			csr := graph.NewCSR(grid(100, 100))
			x := make([]float64, csr.N)
			fillSin(x, 0)
			p.LapMul(csr, csr.NNZPartition(p.Workers()), make([]float64, csr.N), x)
			return weak.Make(csr)
		}()
		runtime.GC()
		runtime.GC()
		if ptr.Value() != nil {
			t.Errorf("workers=%d: the pool still pins the last job's CSR", workers)
		}
		p.Close()
	}
}
