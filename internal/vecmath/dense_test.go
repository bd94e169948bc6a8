package vecmath

import (
	"math"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v", m.At(0, 1))
	}
	row := m.Row(0)
	if len(row) != 3 || row[1] != 7 {
		t.Fatalf("Row = %v", row)
	}
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 7 {
		t.Fatal("Clone shares storage")
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Fatalf("MulVec = %v", dst)
	}
}

func TestIsSymmetric(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	if !m.IsSymmetric(0) {
		t.Fatal("should be symmetric")
	}
	m.Set(1, 0, 2)
	if m.IsSymmetric(1e-12) {
		t.Fatal("should not be symmetric")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Fatal("non-square cannot be symmetric")
	}
}

// symEigCheck verifies A v_i = lambda_i v_i for all pairs.
func symEigCheck(t *testing.T, m *Dense, vals []float64, vecs *Dense, tol float64) {
	t.Helper()
	n := m.Rows
	av := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col[i] = vecs.At(i, j)
		}
		m.MulVec(av, col)
		for i := 0; i < n; i++ {
			if math.Abs(av[i]-vals[j]*col[i]) > tol {
				t.Fatalf("eigenpair %d residual %g at row %d", j, av[i]-vals[j]*col[i], i)
			}
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	m := NewDense(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	vals, vecs, err := SymEig(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v", vals)
		}
	}
	symEigCheck(t, m, vals, vecs, 1e-10)
}

func TestSymEig2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewDense(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	vals, vecs, err := SymEig(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v", vals)
	}
	symEigCheck(t, m, vals, vecs, 1e-10)
}

func TestSymEigRandom(t *testing.T) {
	r := NewRNG(123)
	const n = 30
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	vals, vecs, err := SymEig(m)
	if err != nil {
		t.Fatal(err)
	}
	symEigCheck(t, m, vals, vecs, 1e-8)
	// Eigenvalues must come back sorted ascending.
	for i := 1; i < n; i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
	// Eigenvector matrix must be orthonormal.
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var d float64
			for k := 0; k < n; k++ {
				d += vecs.At(k, i) * vecs.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-9 {
				t.Fatalf("eigenvectors not orthonormal: <%d,%d> = %v", i, j, d)
			}
		}
	}
	// Trace must equal the eigenvalue sum.
	var tr, sum float64
	for i := 0; i < n; i++ {
		tr += m.At(i, i)
		sum += vals[i]
	}
	if math.Abs(tr-sum) > 1e-8 {
		t.Fatalf("trace %v != eigenvalue sum %v", tr, sum)
	}
}

func TestSymEigNonSquare(t *testing.T) {
	if _, _, err := SymEig(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSolveSPD(t *testing.T) {
	// SPD matrix [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
	m := NewDense(2, 2)
	m.Set(0, 0, 4)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := SolveSPD(m, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.0/11) > 1e-12 || math.Abs(x[1]-7.0/11) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSPDRandom(t *testing.T) {
	r := NewRNG(77)
	const n = 40
	// Build SPD as A'A + I.
	a := NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	spd := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a.At(k, i) * a.At(k, j)
			}
			if i == j {
				s += 1
			}
			spd.Set(i, j, s)
		}
	}
	b := make([]float64, n)
	r.FillNormal(b)
	x, err := SolveSPD(spd, b)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, n)
	spd.MulVec(res, x)
	Sub(res, res, b)
	if Norm2(res) > 1e-8*Norm2(b) {
		t.Fatalf("residual too large: %v", Norm2(res))
	}
}

func TestSolveSPDNotPD(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, -1)
	if _, err := SolveSPD(m, []float64{1, 0}); err == nil {
		t.Fatal("expected positive-definiteness error")
	}
}

func TestPseudoInverseApply(t *testing.T) {
	// Path graph 0-1-2 Laplacian; L^+ b for b = e0 - e2 gives potential
	// difference x0 - x2 = effective resistance = 2 (unit weights).
	l := NewDense(3, 3)
	l.Set(0, 0, 1)
	l.Set(0, 1, -1)
	l.Set(1, 0, -1)
	l.Set(1, 1, 2)
	l.Set(1, 2, -1)
	l.Set(2, 1, -1)
	l.Set(2, 2, 1)
	b := []float64{1, 0, -1}
	x, err := PseudoInverseApply(l, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((x[0]-x[2])-2) > 1e-10 {
		t.Fatalf("R_eff(0,2) = %v, want 2", x[0]-x[2])
	}
	if math.Abs(Sum(x)) > 1e-10 {
		t.Fatalf("pseudo-inverse result not mean-centered: %v", x)
	}
}

func TestOrthonormalizeMGS(t *testing.T) {
	r := NewRNG(2)
	vs := make([][]float64, 5)
	for i := range vs {
		vs[i] = make([]float64, 20)
		r.FillNormal(vs[i])
	}
	kept := OrthonormalizeMGS(vs, 1e-10)
	if len(kept) != 5 {
		t.Fatalf("kept %d of 5 independent vectors", len(kept))
	}
	if OrthoCheck(kept) > 1e-10 {
		t.Fatalf("orthonormality deviation %v", OrthoCheck(kept))
	}
}

func TestOrthonormalizeMGSDropsDependent(t *testing.T) {
	v1 := []float64{1, 0, 0}
	v2 := []float64{2, 0, 0} // dependent on v1
	v3 := []float64{0, 1, 0}
	kept := OrthonormalizeMGS([][]float64{v1, v2, v3}, 1e-10)
	if len(kept) != 2 {
		t.Fatalf("kept %d, want 2", len(kept))
	}
	if OrthoCheck(kept) > 1e-12 {
		t.Fatalf("deviation %v", OrthoCheck(kept))
	}
}

// The fused projection chain must reproduce the unfused two-round
// ProjectOut composition bit for bit, dependent vectors included.
func TestOrthonormalizeMGSMatchesUnfused(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 33} {
		r := NewRNG(uint64(n))
		vs := make([][]float64, 6)
		for i := range vs {
			vs[i] = make([]float64, n)
			r.FillNormal(vs[i])
		}
		copy(vs[3], vs[1]) // dependent on an earlier vector
		ref := make([][]float64, len(vs))
		for i, v := range vs {
			ref[i] = append([]float64(nil), v...)
		}
		want := ref[:0]
		for _, v := range ref {
			for round := 0; round < 2; round++ {
				for _, u := range want {
					ProjectOut(v, u)
				}
			}
			if Norm2(v) <= 1e-10 {
				continue
			}
			Normalize(v)
			want = append(want, v)
		}
		got := OrthonormalizeMGS(vs, 1e-10)
		if len(got) != len(want) {
			t.Fatalf("n=%d: kept %d vectors, want %d", n, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("n=%d: vector %d entry %d = %v, want %v", n, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestProjectOut(t *testing.T) {
	u := []float64{1, 0}
	v := []float64{3, 4}
	ProjectOut(v, u)
	if v[0] != 0 || v[1] != 4 {
		t.Fatalf("ProjectOut gave %v", v)
	}
}

func TestProjectOutOnes(t *testing.T) {
	v := []float64{1, 2, 3}
	ProjectOutOnes(v)
	if math.Abs(Sum(v)) > 1e-12 {
		t.Fatalf("sum %v", Sum(v))
	}
}
