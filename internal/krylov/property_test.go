package krylov

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"ingrass/internal/graph"
	"ingrass/internal/vecmath"
)

func randomConnected(seed uint64, n, extra int) *graph.Graph {
	r := vecmath.NewRNG(seed)
	g := graph.New(n, n+extra)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[r.Intn(i)], r.Range(0.1, 10))
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, r.Range(0.1, 10))
		}
	}
	return g
}

// Property: the embedded distance is a pseudo-metric — symmetric,
// non-negative, zero on the diagonal, triangle inequality (it is a squared
// Euclidean distance, so we check the sqrt form).
func TestEmbeddingPseudoMetricProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 25, 35)
		emb, err := NewEmbedding(g, Config{Seed: seed})
		if err != nil {
			return false
		}
		r := vecmath.NewRNG(seed ^ 0x31)
		for k := 0; k < 20; k++ {
			a, b, c := r.Intn(25), r.Intn(25), r.Intn(25)
			rab := emb.Resistance(a, b)
			if rab < 0 || rab != emb.Resistance(b, a) {
				return false
			}
			if a == b && rab != 0 {
				return false
			}
			// sqrt-triangle: d(a,c) <= d(a,b) + d(b,c) on the embedding.
			dab := math.Sqrt(rab)
			dbc := math.Sqrt(emb.Resistance(b, c))
			dac := math.Sqrt(emb.Resistance(a, c))
			if dac > dab+dbc+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the estimate never exceeds the exact resistance by much —
// Rayleigh-Ritz values over-estimate eigenvalues, so each term of Eq. (2)
// is damped; we assert a generous factor rather than exact domination.
func TestEmbeddingNoWildOvershootProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 20, 30)
		emb, err := NewEmbedding(g, Config{Seed: seed, Order: 16})
		if err != nil {
			return false
		}
		r := vecmath.NewRNG(seed ^ 0x91)
		// Conservative sanity: estimates stay finite and below the total
		// tree resistance (sum of all edge resistances), a crude universal
		// upper bound on any effective resistance in a connected graph.
		var totalRes float64
		for _, e := range g.All() {
			totalRes += 1 / e.W
		}
		for k := 0; k < 15; k++ {
			p, q := r.Intn(20), r.Intn(20)
			v := emb.Resistance(p, q)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			if v > 2*totalRes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: Lanczos Ritz values lie within the operator's spectral range
// for Laplacians (0 <= ritz <= 2*maxDegree by Gershgorin).
func TestLanczosRitzRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed, 20, 25)
		op := sparseProjected(g)
		res, err := Lanczos(context.Background(), op, 12, seed)
		if err != nil {
			return false
		}
		var maxDeg float64
		for v := 0; v < g.NumNodes(); v++ {
			if d := g.WeightedDegree(v); d > maxDeg {
				maxDeg = d
			}
		}
		lo, hi := res.ExtremeRitz()
		return lo >= -1e-9 && hi <= 2*maxDeg+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// sparseProjected builds the projected Laplacian operator used by the
// Lanczos property test.
func sparseProjected(g *graph.Graph) interface {
	Dim() int
	Apply(dst, x []float64)
} {
	return projectedLap{csr: graph.NewCSR(g)}
}

type projectedLap struct{ csr *graph.CSR }

func (p projectedLap) Dim() int { return p.csr.N }
func (p projectedLap) Apply(dst, x []float64) {
	p.csr.LapMul(dst, x)
	vecmath.CenterMean(dst)
}
