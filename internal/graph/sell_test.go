package graph

import (
	"math"
	"testing"

	"ingrass/internal/vecmath"
)

// starGraph builds a hub-and-spoke graph: the degree distribution SELL's
// σ-window sort exists to absorb (one huge row, n-1 tiny ones).
func starGraph(n int) *Graph {
	g := New(n, n-1)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v, 1+0.25*float64(v%7))
	}
	return g
}

// sparseGraphWithEmptyRows builds a random graph guaranteed to leave many
// isolated (empty-row) nodes.
func sparseGraphWithEmptyRows(seed uint64, n int) *Graph {
	return randomGraphFromSeed(seed, n, n/4)
}

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// signedTestVector fills x with values of both signs (including exact
// negatives) so the padded-slot hazard — subtracting 0*x flips -0
// accumulators — would be caught if a kernel ever touched padding.
func signedTestVector(seed uint64, n int) []float64 {
	r := vecmath.NewRNG(seed)
	x := make([]float64, n)
	r.FillNormal(x)
	for i := range x {
		if i%5 == 0 {
			x[i] = -math.Abs(x[i])
		}
	}
	return x
}

func sellTestCases() map[string]*Graph {
	return map[string]*Graph{
		"random_n10":      randomGraphFromSeed(1, 10, 25),
		"random_n101":     randomGraphFromSeed(2, 101, 400), // partial tail chunk
		"random_n256":     randomGraphFromSeed(3, 256, 1024),
		"empty_rows_n200": sparseGraphWithEmptyRows(4, 200),
		"star_n97":        starGraph(97),
		"no_edges_n40":    New(40, 0),
		"single_node":     New(1, 0),
	}
}

func TestSELLLapMulBitIdenticalToCSR(t *testing.T) {
	for name, g := range sellTestCases() {
		for _, sigma := range []int{0, 8, 64, DefaultSellSigma} {
			c := NewCSR(g)
			s := NewSELL(c, sigma, nil)
			n := c.N
			x := signedTestVector(uint64(n)*31+uint64(sigma), n)
			want := make([]float64, n)
			got := make([]float64, n)
			c.LapMul(want, x)
			s.LapMul(got, x)
			if i, ok := bitsEqual(want, got); !ok {
				t.Errorf("%s sigma=%d: LapMul differs at %d: csr=%x sell=%x",
					name, sigma, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
			}
		}
	}
}

func TestSELLLapMulMultiBitIdenticalToCSR(t *testing.T) {
	for name, g := range sellTestCases() {
		c := NewCSR(g)
		s := NewSELL(c, 32, nil)
		n := c.N
		for _, b := range []int{1, 2, 3, 7, 16} {
			x := make([][]float64, b)
			got := make([][]float64, b)
			want := make([]float64, n)
			for j := range x {
				x[j] = signedTestVector(uint64(n*17+j), n)
				got[j] = make([]float64, n)
			}
			s.LapMulMulti(got, x)
			for j := range x {
				c.LapMul(want, x[j]) // serial CSR column is the reference
				if i, ok := bitsEqual(want, got[j]); !ok {
					t.Errorf("%s width=%d col=%d: differs at %d", name, b, j, i)
				}
			}
		}
	}
}

// The σ-window sort permutation must be a bijection that round-trips, stay
// inside its window, and order row lengths descending within each window.
func TestSELLSigmaPermutationRoundTrip(t *testing.T) {
	for name, g := range sellTestCases() {
		const sigma = 16
		c := NewCSR(g)
		s := NewSELL(c, sigma, nil)
		n := c.N
		seen := make([]bool, n)
		inv := make([]int, n)
		for r, u := range s.Perm {
			if int(u) < 0 || int(u) >= n {
				t.Fatalf("%s: Perm[%d]=%d out of range", name, r, u)
			}
			if seen[u] {
				t.Fatalf("%s: Perm maps two rows to %d", name, u)
			}
			seen[u] = true
			inv[u] = r
			// Window-local: a row never leaves its σ window.
			if r/sigma != int(u)/sigma {
				t.Errorf("%s: row %d sorted into position %d, outside its σ=%d window", name, u, r, sigma)
			}
			if got := c.RowPtr[u+1] - c.RowPtr[u]; got != int(s.RowLen[r]) {
				t.Errorf("%s: RowLen[%d]=%d, CSR says %d", name, r, s.RowLen[r], got)
			}
		}
		for u := range inv {
			if int(s.Perm[inv[u]]) != u {
				t.Fatalf("%s: permutation does not round-trip at %d", name, u)
			}
		}
		for w0 := 0; w0 < n; w0 += sigma {
			w1 := w0 + sigma
			if w1 > n {
				w1 = n
			}
			for r := w0 + 1; r < w1; r++ {
				if s.RowLen[r] > s.RowLen[r-1] {
					t.Errorf("%s: lengths not descending within window at %d", name, r)
				}
			}
		}
	}
}

// Structure checks: every real CSR entry appears in its slot in per-row
// order, padding slots carry zero weight, and the footprint predictor
// agrees with the built object.
func TestSELLStructureAndFootprint(t *testing.T) {
	for name, g := range sellTestCases() {
		c := NewCSR(g)
		const sigma = 32
		s := NewSELL(c, sigma, nil)
		if s.NNZ() != c.NNZ() {
			t.Fatalf("%s: NNZ %d != CSR %d", name, s.NNZ(), c.NNZ())
		}
		for ch := 0; ch < s.NumChunks(); ch++ {
			base := s.ChunkPtr[ch]
			if s.ChunkPtr[ch+1]-base != SellC*int(s.ChunkLen[ch]) {
				t.Fatalf("%s: chunk %d slot extent mismatch", name, ch)
			}
			for lane := 0; lane < SellC && ch*SellC+lane < s.N; lane++ {
				r := ch*SellC + lane
				u := int(s.Perm[r])
				row := c.RowPtr[u]
				for k := 0; k < int(s.ChunkLen[ch]); k++ {
					idx := base + k*SellC + lane
					if k < int(s.RowLen[r]) {
						if int(s.Cols[idx]) != c.ColIdx[row+k] || s.Vals[idx] != c.Weights[row+k] {
							t.Fatalf("%s: chunk %d lane %d slot %d entry mismatch", name, ch, lane, k)
						}
					} else if s.Vals[idx] != 0 {
						t.Fatalf("%s: padding slot %d has nonzero weight", name, idx)
					}
				}
			}
		}
		bytes, pad := SellFootprint(c, sigma)
		if math.Abs(pad-s.PaddingRatio()) > 1e-15 {
			t.Errorf("%s: footprint padding %v != built %v", name, pad, s.PaddingRatio())
		}
		built := 8*(s.NumChunks()+1) + 4*s.NumChunks() + 4*s.NumChunks() +
			4*s.Slots() + 8*s.Slots() + 4*s.N + 4*s.N
		if bytes != built {
			t.Errorf("%s: footprint bytes %d != built %d", name, bytes, built)
		}
	}
}

// σ-sorting must crush padding on skewed interleaved degrees: with hub
// rows scattered among leaf rows, every unsorted chunk containing a hub
// pads its leaf lanes to the hub length; a window spanning several hubs
// groups them into the same chunks, leaving leaf chunks dense. (A single
// global hub is the case sorting cannot help — it dominates one chunk
// either way — which is why this test interleaves many hubs.)
func TestSELLSigmaSortReducesPaddingOnSkewedRows(t *testing.T) {
	// 16 hubs of degree 15 at indices 0, 16, 32, ...; leaves have degree 1.
	const period, hubs = 16, 16
	g := New(period*hubs, hubs*(period-1))
	for h := 0; h < hubs; h++ {
		for k := 1; k < period; k++ {
			g.AddEdge(h*period, h*period+k, 1+0.1*float64(k))
		}
	}
	c := NewCSR(g)
	sorted := NewSELL(c, 64, nil) // window spans 4 hubs → hubs share chunks
	unsorted := NewSELL(c, 1, nil)
	if sorted.PaddingRatio() >= unsorted.PaddingRatio() {
		t.Fatalf("sorting did not reduce padding: sorted=%v unsorted=%v",
			sorted.PaddingRatio(), unsorted.PaddingRatio())
	}
	if sorted.PaddingRatio() > 0.05 {
		t.Errorf("sorted padding ratio %v, want near zero", sorted.PaddingRatio())
	}
}

func TestSELLChunkPartitionSpansReproduceFullProduct(t *testing.T) {
	for name, g := range sellTestCases() {
		c := NewCSR(g)
		s := NewSELL(c, 64, nil)
		n := c.N
		x := signedTestVector(uint64(n)+99, n)
		want := make([]float64, n)
		s.LapMul(want, x)
		for _, parts := range []int{1, 2, 3, 7, 64, s.NumChunks() + 5} {
			part := s.NNZChunkPartition(parts)
			if part[0] != 0 || part[len(part)-1] != s.NumChunks() {
				t.Fatalf("%s parts=%d: partition does not cover chunks: %v", name, parts, part)
			}
			for i := 1; i < len(part); i++ {
				if part[i] < part[i-1] {
					t.Fatalf("%s parts=%d: partition not monotone: %v", name, parts, part)
				}
			}
			got := make([]float64, n)
			for i := 1; i < len(part); i++ {
				s.LapMulChunks(got, x, part[i-1], part[i])
			}
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("%s parts=%d: span-wise product differs at %d", name, parts, i)
			}
		}
	}
}

// CSR.NNZPartition degenerate inputs.
func TestNNZPartitionDegenerate(t *testing.T) {
	check := func(t *testing.T, c *CSR, chunks int) []int {
		t.Helper()
		part := c.NNZPartition(chunks)
		if part[0] != 0 || part[len(part)-1] != c.N {
			t.Fatalf("chunks=%d: partition does not cover rows: %v", chunks, part)
		}
		for i := 1; i < len(part); i++ {
			if part[i] < part[i-1] {
				t.Fatalf("chunks=%d: partition not monotone: %v", chunks, part)
			}
		}
		return part
	}

	t.Run("width_exceeds_rows_with_nonzeros", func(t *testing.T) {
		// 3 real rows (one triangle) in a 64-node graph, asked for 16 ways.
		g := New(64, 3)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 0, 1)
		c := NewCSR(g)
		part := check(t, c, 16)
		x := signedTestVector(7, c.N)
		want := make([]float64, c.N)
		got := make([]float64, c.N)
		c.LapMul(want, x)
		for i := 1; i < len(part); i++ {
			c.lapMulRange(got, x, part[i-1], part[i])
		}
		if i, ok := bitsEqual(want, got); !ok {
			t.Fatalf("span-wise product differs at %d", i)
		}
	})

	t.Run("all_rows_empty", func(t *testing.T) {
		c := NewCSR(New(33, 0))
		for _, chunks := range []int{1, 2, 8, 64} {
			part := check(t, c, chunks)
			x := signedTestVector(8, c.N)
			got := make([]float64, c.N)
			for i := 1; i < len(part); i++ {
				c.lapMulRange(got, x, part[i-1], part[i])
			}
			for i, v := range got {
				if v != 0 {
					t.Fatalf("chunks=%d: empty operator produced nonzero at %d: %v", chunks, i, v)
				}
			}
			_ = part
		}
	})

	t.Run("single_row", func(t *testing.T) {
		g := New(1, 0)
		check(t, NewCSR(g), 4)
	})
}

// SELL built through an arena-style Alloc must be byte-for-byte the same
// operator as the heap-built one (exercised here with a simple recording
// allocator; the real kernel.Arena implements the same interface).
type countingAlloc struct{ calls int }

func (a *countingAlloc) Float64(n int) []float64 { a.calls++; return make([]float64, n) }
func (a *countingAlloc) Int(n int) []int         { a.calls++; return make([]int, n) }
func (a *countingAlloc) Int32(n int) []int32     { a.calls++; return make([]int32, n) }

func TestSELLBuildThroughAlloc(t *testing.T) {
	c := NewCSR(randomGraphFromSeed(11, 120, 480))
	heap := NewSELL(c, 32, nil)
	al := &countingAlloc{}
	ar := NewSELL(c, 32, al)
	if al.calls == 0 {
		t.Fatal("alloc never used")
	}
	if i, ok := bitsEqual(heap.Vals, ar.Vals); !ok {
		t.Fatalf("Vals differ at %d", i)
	}
	for i := range heap.Cols {
		if heap.Cols[i] != ar.Cols[i] {
			t.Fatalf("Cols differ at %d", i)
		}
	}
	x := signedTestVector(5, c.N)
	a, b := make([]float64, c.N), make([]float64, c.N)
	heap.LapMul(a, x)
	ar.LapMul(b, x)
	if i, ok := bitsEqual(a, b); !ok {
		t.Fatalf("products differ at %d", i)
	}
}

func TestCSRCompactIntoPreservesOperator(t *testing.T) {
	c := NewCSR(randomGraphFromSeed(13, 90, 300))
	al := &countingAlloc{}
	cc := c.CompactInto(al)
	x := signedTestVector(6, c.N)
	a, b := make([]float64, c.N), make([]float64, c.N)
	c.LapMul(a, x)
	cc.LapMul(b, x)
	if i, ok := bitsEqual(a, b); !ok {
		t.Fatalf("compacted CSR differs at %d", i)
	}
	if c.ArenaBytes() != 8*(len(c.RowPtr)+len(c.ColIdx)+len(c.Weights)+len(c.Degree)) {
		t.Fatal("ArenaBytes miscounts")
	}
}
