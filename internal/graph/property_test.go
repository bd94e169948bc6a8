package graph

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"ingrass/internal/vecmath"
)

// stringsBuilderLike is a tiny buffer adapter for the I/O property test.
type stringsBuilderLike struct{ buf bytes.Buffer }

func (s *stringsBuilderLike) Write(p []byte) (int, error) { return s.buf.Write(p) }
func (s *stringsBuilderLike) reader() io.Reader           { return bytes.NewReader(s.buf.Bytes()) }

// randomGraphFromSeed builds a reproducible random multigraph.
func randomGraphFromSeed(seed uint64, n, m int) *Graph {
	r := vecmath.NewRNG(seed)
	g := New(n, m)
	for k := 0; k < m; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, r.Range(0.01, 100))
		}
	}
	return g
}

// Property: the Laplacian quadratic form is invariant under constant
// shifts of x (the constant vector is in the null space).
func TestQuadraticFormShiftInvarianceProperty(t *testing.T) {
	f := func(seed uint64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		g := randomGraphFromSeed(seed, 20, 40)
		r := vecmath.NewRNG(seed ^ 0xabc)
		x := make([]float64, 20)
		r.FillNormal(x)
		q1 := g.QuadraticForm(x)
		for i := range x {
			x[i] += shift
		}
		q2 := g.QuadraticForm(x)
		scale := math.Abs(q1) + 1
		return math.Abs(q1-q2) <= 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LapMul is linear: L(ax + by) = a Lx + b Ly.
func TestLapMulLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraphFromSeed(seed, 15, 30)
		r := vecmath.NewRNG(seed ^ 0x777)
		x := make([]float64, 15)
		y := make([]float64, 15)
		r.FillNormal(x)
		r.FillNormal(y)
		a, b := r.Range(-3, 3), r.Range(-3, 3)

		comb := make([]float64, 15)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		lc := make([]float64, 15)
		g.LapMul(lc, comb)

		lx := make([]float64, 15)
		ly := make([]float64, 15)
		g.LapMul(lx, x)
		g.LapMul(ly, y)
		for i := range lc {
			want := a*lx[i] + b*ly[i]
			if math.Abs(lc[i]-want) > 1e-8*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the quadratic form is non-negative (Laplacians are PSD).
func TestQuadraticFormPSDProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraphFromSeed(seed, 12, 25)
		r := vecmath.NewRNG(seed ^ 0x31)
		x := make([]float64, 12)
		r.FillNormal(x)
		return g.QuadraticForm(x) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR conversion preserves the Laplacian action exactly for any
// random multigraph (parallel edges merged).
func TestCSREquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraphFromSeed(seed, 18, 50)
		c := NewCSR(g)
		r := vecmath.NewRNG(seed ^ 0x5)
		x := make([]float64, 18)
		r.FillNormal(x)
		a := make([]float64, 18)
		b := make([]float64, 18)
		g.LapMul(a, x)
		c.LapMul(b, x)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-8*(1+math.Abs(a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Coalesce preserves node count, total weight, and the Laplacian
// action while removing all parallel edges.
func TestCoalesceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraphFromSeed(seed, 10, 40)
		c := g.Coalesce()
		if c.NumNodes() != g.NumNodes() {
			return false
		}
		if math.Abs(c.TotalWeight()-g.TotalWeight()) > 1e-9*(1+g.TotalWeight()) {
			return false
		}
		// No duplicate pairs.
		seen := map[uint64]bool{}
		for _, e := range c.All() {
			if seen[e.Key()] {
				return false
			}
			seen[e.Key()] = true
		}
		// Same Laplacian action.
		r := vecmath.NewRNG(seed ^ 0x99)
		x := make([]float64, 10)
		r.FillNormal(x)
		a := make([]float64, 10)
		b := make([]float64, 10)
		g.LapMul(a, x)
		c.LapMul(b, x)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-8*(1+math.Abs(a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: component labels partition the node set consistently with
// pairwise reachability derived from union-find over the edges.
func TestComponentsMatchUnionFindProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraphFromSeed(seed, 16, 12) // sparse: likely disconnected
		labels, count := Components(g)
		uf := NewUnionFind(16)
		for _, e := range g.All() {
			uf.Union(e.U, e.V)
		}
		if uf.Count() != count {
			return false
		}
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				if (labels[i] == labels[j]) != uf.Connected(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: graph text I/O round-trips exactly.
func TestIORoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraphFromSeed(seed, 9, 20)
		var buf stringsBuilderLike
		if err := Write(&buf, g); err != nil {
			return false
		}
		back, err := Read(buf.reader())
		if err != nil {
			return false
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			return false
		}
		for i := range g.All() {
			if g.Edge(i) != back.Edge(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
