package kernel

import (
	"math"
	"testing"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

// sellFixture builds a graph whose SELL work comfortably exceeds
// SpMVCutover, plus its CSR and SELL views.
func sellFixture(seed uint64, n, m int) (*graph.CSR, *graph.SELL) {
	r := vecmath.NewRNG(seed)
	g := graph.New(n, m)
	for k := 0; k < m; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, r.Range(0.01, 100))
		}
	}
	c := graph.NewCSR(g)
	return c, graph.NewSELL(c, 0, nil)
}

func bitsDiffAt(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// Pooled SELL products must be bit-identical to serial CSR — the chunk-
// granular partition never splits a chunk, so each row is written by one
// worker with the serial per-row accumulation order.
func TestPooledSELLBitIdenticalToSerialCSR(t *testing.T) {
	withProcs(t, 4)
	c, s := sellFixture(42, 4096, 12000)
	if s.SpMVWork() < SpMVCutover {
		t.Fatalf("fixture too small to exercise the pool: work=%d", s.SpMVWork())
	}
	for _, workers := range []int{2, 3, 4} {
		p := New(workers)
		defer p.Close()
		part := s.NNZChunkPartition(p.Workers())
		x := make([]float64, c.N)
		vecmath.NewRNG(7).FillNormal(x)
		want := make([]float64, c.N)
		got := make([]float64, c.N)

		c.LapMul(want, x)
		p.LapMulSELL(s, part, got, x)
		if i := bitsDiffAt(want, got); i >= 0 {
			t.Errorf("workers=%d: LapMulSELL differs from serial CSR at %d", workers, i)
		}
	}
}

func TestPooledSELLMultiBitIdenticalPerColumn(t *testing.T) {
	withProcs(t, 4)
	c, s := sellFixture(43, 4096, 12000)
	p := New(4)
	defer p.Close()
	part := s.NNZChunkPartition(p.Workers())
	for _, b := range []int{1, 2, 3, 7, 16} {
		x := make([][]float64, b)
		dst := make([][]float64, b)
		for j := range x {
			x[j] = make([]float64, c.N)
			vecmath.NewRNG(uint64(100 + j)).FillNormal(x[j])
			dst[j] = make([]float64, c.N)
		}
		forks := p.Forks()
		p.LapMulMultiSELL(s, part, dst, x)
		if forked := p.Forks() - forks; s.SpMVWork() >= SpMVCutover && forked != 1 {
			t.Errorf("width=%d: %d forks, want 1 (width 1 keeps the pooled product)", b, forked)
		}
		want := make([]float64, c.N)
		for j := range x {
			c.LapMul(want, x[j])
			if i := bitsDiffAt(want, dst[j]); i >= 0 {
				t.Errorf("width=%d col=%d: pooled SELL multi differs from serial CSR at %d", b, j, i)
			}
		}
	}
}

// Sub-cutover and nil-pool calls must fall back to the serial sliced
// kernels (and still be correct) — mirroring the CSR entry points.
func TestPooledSELLSerialFallbacks(t *testing.T) {
	c, s := sellFixture(44, 64, 160) // far below SpMVCutover
	x := make([]float64, c.N)
	vecmath.NewRNG(9).FillNormal(x)
	want := make([]float64, c.N)
	got := make([]float64, c.N)
	c.LapMul(want, x)

	var nilPool *Pool
	nilPool.LapMulSELL(s, s.NNZChunkPartition(1), got, x)
	if i := bitsDiffAt(want, got); i >= 0 {
		t.Errorf("nil pool: differs at %d", i)
	}

	withProcs(t, 2)
	p := New(2)
	defer p.Close()
	p.LapMulSELL(s, s.NNZChunkPartition(p.Workers()), got, x)
	if i := bitsDiffAt(want, got); i >= 0 {
		t.Errorf("sub-cutover pooled: differs at %d", i)
	}
}
