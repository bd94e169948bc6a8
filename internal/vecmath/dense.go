package vecmath

import (
	"fmt"
	"math"
)

// Dense is a small row-major dense matrix. It exists for the pieces of the
// pipeline where the problem dimension is tiny (Lanczos tridiagonal systems,
// test oracles on graphs with a few hundred nodes); all large-scale work in
// the repository is matrix-free.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zeroed rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("vecmath: NewDense with negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the (i, j) entry.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments the (i, j) entry by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = m * x.
func (m *Dense) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("vecmath: MulVec dims (%dx%d)*%d into %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, rv := range row {
			s += float64(rv * x[j])
		}
		dst[i] = s
	}
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// SymEig computes all eigenvalues and eigenvectors of the symmetric matrix m
// using the cyclic Jacobi rotation method. It returns the eigenvalues in
// ascending order and a matrix whose COLUMNS are the corresponding
// orthonormal eigenvectors. m is not modified.
//
// Jacobi is O(n^3) per sweep and unconditionally stable; it is intended for
// the n <= ~1000 regime where it serves as the exact oracle against which
// the iterative estimators (Krylov resistance, pencil power iteration) are
// validated in tests. It also runs in the Krylov embedding's Rayleigh-Ritz
// step, so its products are written float64(x*y) like the kernels'
// (generic.go): the setup phase's bits must not depend on the architecture.
func SymEig(m *Dense) (eigenvalues []float64, eigenvectors *Dense, err error) {
	if m.Rows != m.Cols {
		return nil, nil, fmt.Errorf("vecmath: SymEig on non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += float64(a.At(i, j) * a.At(i, j))
			}
		}
		return s
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiag()
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if apq == 0 {
					continue
				}
				app := a.At(p, p)
				aqq := a.At(q, q)
				// Rotation angle that annihilates a[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c

				for k := 0; k < n; k++ {
					akp := a.At(k, p)
					akq := a.At(k, q)
					a.Set(k, p, float64(c*akp)-float64(s*akq))
					a.Set(k, q, float64(s*akp)+float64(c*akq))
				}
				for k := 0; k < n; k++ {
					apk := a.At(p, k)
					aqk := a.At(q, k)
					a.Set(p, k, float64(c*apk)-float64(s*aqk))
					a.Set(q, k, float64(s*apk)+float64(c*aqk))
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(s*vkq))
					v.Set(k, q, float64(s*vkp)+float64(c*vkq))
				}
			}
		}
	}

	eigenvalues = make([]float64, n)
	for i := 0; i < n; i++ {
		eigenvalues[i] = a.At(i, i)
	}
	// Sort eigenvalues ascending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && eigenvalues[idx[j]] < eigenvalues[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := NewDense(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = eigenvalues[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// SolveSPD solves the linear system m*x = b for a symmetric positive-definite
// m via Cholesky factorization, returning the solution. It is a test oracle
// for the iterative solvers in internal/sparse.
func SolveSPD(m *Dense, b []float64) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("vecmath: SolveSPD on non-square matrix")
	}
	n := m.Rows
	if len(b) != n {
		return nil, fmt.Errorf("vecmath: SolveSPD rhs length %d != %d", len(b), n)
	}
	// Lower-triangular Cholesky factor, computed in a copy.
	l := m.Clone()
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			d -= float64(l.At(j, k) * l.At(j, k))
		}
		if d <= 0 {
			return nil, fmt.Errorf("vecmath: SolveSPD matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			for k := 0; k < j; k++ {
				s -= float64(l.At(i, k) * l.At(j, k))
			}
			l.Set(i, j, s/d)
		}
	}
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(l.At(i, k) * y[k])
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution L' x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.At(k, i) * x[k])
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// PseudoInverseApply computes x = M^+ b for a symmetric positive
// SEMI-definite M whose null space is spanned by the all-ones vector (a
// connected-graph Laplacian). It works by deflating the constant mode and
// solving the remaining SPD system densely; intended for test oracles only.
func PseudoInverseApply(m *Dense, b []float64) ([]float64, error) {
	n := m.Rows
	// Regularize: (M + (1/n) * 1 1') is SPD and agrees with M on 1-perp.
	reg := m.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			reg.Add(i, j, 1/float64(n))
		}
	}
	bb := make([]float64, n)
	copy(bb, b)
	CenterMean(bb)
	x, err := SolveSPD(reg, bb)
	if err != nil {
		return nil, err
	}
	CenterMean(x)
	return x, nil
}
