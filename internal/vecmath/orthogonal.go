package vecmath

import "math"

// OrthonormalizeMGS performs modified Gram-Schmidt on the given set of
// vectors in place, producing an orthonormal set spanning the same subspace.
// Vectors that become (numerically) linearly dependent are dropped; the
// returned slice aliases the surviving vectors in their original order.
//
// dropTol is the norm below which a vector is considered dependent after
// projection; a typical value is 1e-10 times the original norm scale.
func OrthonormalizeMGS(vectors [][]float64, dropTol float64) [][]float64 {
	kept := vectors[:0]
	for _, v := range vectors {
		// Two projection rounds ("twice is enough": the second restores
		// orthogonality lost to cancellation on ill-conditioned inputs).
		// Each projection's AXPY is folded into the next dot product
		// (AXPYDot), across the round boundary too, and the last one into
		// the squared norm of the result. Products commute exactly and every
		// reduction keeps the lane order, so this equals ProjectOut twice per
		// kept vector followed by Norm2 bit for bit, in 2k+1 passes where
		// that took 4k+1 and Normalize took the norm once more.
		var n2 float64
		if k := len(kept); k == 0 {
			n2 = Dot(v, v)
		} else {
			c := Dot(kept[0], v)
			for i := 1; i < 2*k; i++ {
				c = AXPYDot(v, -c, kept[(i-1)%k], kept[i%k])
			}
			n2 = AXPYDot(v, -c, kept[k-1], v)
		}
		n := math.Sqrt(n2)
		if n <= dropTol {
			continue
		}
		if n != 0 {
			Scale(v, 1/n)
		}
		kept = append(kept, v)
	}
	return kept
}

// ProjectOut subtracts from v its component along the (assumed unit-norm)
// direction u: v -= (u . v) u.
func ProjectOut(v, u []float64) {
	AXPY(v, -Dot(u, v), u)
}

// ProjectOutOnes removes the constant component of v, i.e. projects v onto
// the orthogonal complement of the all-ones vector. This is the same
// operation as CenterMean; the alias documents intent at Krylov call sites
// where the ones vector is the Laplacian kernel.
func ProjectOutOnes(v []float64) {
	CenterMean(v)
}

// OrthoCheck returns the maximum absolute deviation from orthonormality of
// the given vectors: max over pairs |<u_i, u_j> - delta_ij|. Used in tests
// and debug assertions.
func OrthoCheck(vectors [][]float64) float64 {
	var worst float64
	for i := range vectors {
		for j := i; j < len(vectors); j++ {
			d := Dot(vectors[i], vectors[j])
			if i == j {
				d -= 1
			}
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
