package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/precond"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// TestDistortionEstimateAgainstExact checks the filter's distortion
// estimate, w times lrd.ResistanceEstimate, against the exact w·R_H(u,v) on
// H(0). The estimate is not an upper bound on the exact value, and this
// test does not treat it as one: it bounds how well the estimate orders a
// batch, how often it falls below the exact value, and that the decision
// classes sort by exact distortion.
//
// Setup: a 2,000-node Delaunay mesh, H(0) from grass.InitialSparsifier at
// density 0.10, Krylov seed 2, target condition number 100, and one
// 400-edge uniform gen.Stream batch with seed 3. R_H is solved through
// precond.Factorize(h) at tol 1e-10. Measured for this seed: Spearman ρ 0.672 between estimate and
// exact; the estimate below the exact value for 79 of 400 edges; 361
// edges included, 34 merged and 5 redistributed, with median exact
// distortion 7.77, 4.55 and 2.91. The bounds: ρ at least 0.65, at most 85
// edges under, and the class medians in the order included ≥ merged ≥
// redistributed.
func TestDistortionEstimateAgainstExact(t *testing.T) {
	const (
		minSpearman = 0.65
		maxUnder    = 85
	)
	g, err := gen.Delaunay(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	init, err := grass.InitialSparsifier(g, 0.10, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := init.H
	stream, err := gen.Stream(g, gen.StreamConfig{Kind: gen.StreamUniform, Count: 400, Batches: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := stream[0]
	fact, err := precond.Factorize(h, solver.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	hOp := sparse.NewLapOperator(h)
	rhs := make([]float64, h.NumNodes())
	x := make([]float64, h.NumNodes())
	exact := make([]float64, len(batch))
	for i, e := range batch {
		vecmath.Basis(rhs, e.U, e.V)
		if _, err := fact.Solve(context.Background(), hOp, x, rhs, solver.Options{}); err != nil {
			t.Fatal(err)
		}
		exact[i] = e.W * (x[e.U] - x[e.V])
	}
	s, err := NewSparsifier(g, h, Config{
		TargetCond: 100,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	est := make([]float64, len(batch))
	under := 0
	for i, e := range batch {
		est[i] = s.EstimateDistortion(e)
		if est[i] < exact[i] {
			under++
		}
	}
	decisions, err := s.UpdateBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	byAction := map[Action][]float64{}
	for _, d := range decisions {
		if d.Distortion != est[d.Pos] {
			t.Fatalf("edge %d: decision distortion %v, estimate %v", d.Pos, d.Distortion, est[d.Pos])
		}
		byAction[d.Action] = append(byAction[d.Action], exact[d.Pos])
	}
	rho := spearman(est, exact)
	inc, mer, red := median(byAction[Included]), median(byAction[Merged]), median(byAction[Redistributed])
	t.Logf("Spearman %.3f; estimate below exact for %d of %d; included %d (median exact %.3f), merged %d (%.3f), redistributed %d (%.3f)",
		rho, under, len(batch), len(byAction[Included]), inc, len(byAction[Merged]), mer, len(byAction[Redistributed]), red)
	if rho < minSpearman {
		t.Errorf("Spearman ρ %.3f between estimate and exact, below %v", rho, minSpearman)
	}
	if under > maxUnder {
		t.Errorf("estimate below exact for %d edges, over %d", under, maxUnder)
	}
	if !(inc >= mer && mer >= red) {
		t.Errorf("median exact distortion by class: included %v, merged %v, redistributed %v; want included ≥ merged ≥ redistributed", inc, mer, red)
	}
}

// spearman returns the rank correlation of a and b, ties ranked by their
// mean position.
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	n := float64(len(a))
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma, mb = ma/n, mb/n
	var sab, saa, sbb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return sab / math.Sqrt(saa*sbb)
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(i, j int) int {
		switch {
		case v[i] < v[j]:
			return -1
		case v[i] > v[j]:
			return 1
		}
		return 0
	})
	r := make([]float64, len(v))
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi+1 < len(idx) && v[idx[hi+1]] == v[idx[lo]] {
			hi++
		}
		for k := lo; k <= hi; k++ {
			r[idx[k]] = float64(lo+hi) / 2
		}
		lo = hi + 1
	}
	return r
}

// median returns the median of v, NaN if v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
