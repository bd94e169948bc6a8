package vecmath

// Kernel bodies. Each exported kernel in vector.go and fused.go validates
// its lengths and calls exactly one of these; there is no other
// implementation on any architecture, so every host computes the same bits.
//
// The contract, pinned bit for bit by the lane oracle in lane_test.go:
//
//   - Reductions run in a fixed 4-lane order: element i feeds accumulator
//     i%4 over the first len&^3 elements, the accumulators combine as
//     (l0+l2)+(l1+l3), and the tail of up to three elements is then added
//     left to right. This is the order of a 4-wide vector register, and it
//     keeps four independent dependency chains in flight. Like the
//     kernel.Pool reductions, it is deterministic but not the serial left
//     fold.
//   - Every product is written float64(x*y). The Go spec lets a compiler
//     fuse x*y+z into one multiply-add with a single rounding (Go does on
//     arm64, not on amd64); an explicit conversion forces the product to be
//     rounded first, so each element sees the same two roundings on every
//     architecture.
//   - Element-wise outputs (the vector updates of AXPYDot, AXPY2, AXPYPair,
//     XPBYInto) equal the plain one-statement-per-element loops exactly.
//
// The accumulators are scalar locals rather than a [4]float64: the array
// form measured 30–40% slower, because the compiler keeps it in memory.

// dot is Lanes' add over the whole multiple-of-4 prefix, then its finish:
// Dot and the blocked products of Lanes share one body.
func dot(a, b []float64) float64 {
	var l Lanes
	v := len(a) &^ 3
	l.add(a[:v], b[:v])
	return l.finish(a[v:], b[v:len(a)])
}

// add feeds the products of a and b, len(a) a multiple of 4 and len(b) at
// least len(a), into the lanes: element i into lane i%4.
func (l *Lanes) add(a, b []float64) {
	b = b[:len(a)]
	l0, l1, l2, l3 := l[0], l[1], l[2], l[3]
	for i := 0; i < len(a); i += 4 {
		a, b := a[i:i+4:i+4], b[i:i+4:i+4]
		l0 += float64(a[0] * b[0])
		l1 += float64(a[1] * b[1])
		l2 += float64(a[2] * b[2])
		l3 += float64(a[3] * b[3])
	}
	l[0], l[1], l[2], l[3] = l0, l1, l2, l3
}

// finish combines the lanes and adds the tail products left to right.
func (l *Lanes) finish(a, b []float64) float64 {
	b = b[:len(a)]
	s := (l[0] + l[2]) + (l[1] + l[3])
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func axpyDot(dst []float64, alpha float64, x, y []float64) float64 {
	x, y = x[:len(dst)], y[:len(dst)]
	var l0, l1, l2, l3 float64
	v := len(dst) &^ 3
	for i := 0; i < v; i += 4 {
		d, x, y := dst[i:i+4:i+4], x[i:i+4:i+4], y[i:i+4:i+4]
		d0 := d[0] + float64(alpha*x[0])
		d1 := d[1] + float64(alpha*x[1])
		d2 := d[2] + float64(alpha*x[2])
		d3 := d[3] + float64(alpha*x[3])
		d[0], d[1], d[2], d[3] = d0, d1, d2, d3
		l0 += float64(d0 * y[0])
		l1 += float64(d1 * y[1])
		l2 += float64(d2 * y[2])
		l3 += float64(d3 * y[3])
	}
	s := (l0 + l2) + (l1 + l3)
	for i := v; i < len(dst); i++ {
		d := dst[i] + float64(alpha*x[i])
		dst[i] = d
		s += float64(d * y[i])
	}
	return s
}

func axpy2(x, r []float64, alpha float64, p, ap []float64) float64 {
	r, p, ap = r[:len(x)], p[:len(x)], ap[:len(x)]
	var l0, l1, l2, l3 float64
	v := len(x) &^ 3
	for i := 0; i < v; i += 4 {
		x, r, p, ap := x[i:i+4:i+4], r[i:i+4:i+4], p[i:i+4:i+4], ap[i:i+4:i+4]
		x[0] += float64(alpha * p[0])
		x[1] += float64(alpha * p[1])
		x[2] += float64(alpha * p[2])
		x[3] += float64(alpha * p[3])
		r0 := r[0] - float64(alpha*ap[0])
		r1 := r[1] - float64(alpha*ap[1])
		r2 := r[2] - float64(alpha*ap[2])
		r3 := r[3] - float64(alpha*ap[3])
		r[0], r[1], r[2], r[3] = r0, r1, r2, r3
		l0 += float64(r0 * r0)
		l1 += float64(r1 * r1)
		l2 += float64(r2 * r2)
		l3 += float64(r3 * r3)
	}
	s := (l0 + l2) + (l1 + l3)
	for i := v; i < len(x); i++ {
		x[i] += float64(alpha * p[i])
		ri := r[i] - float64(alpha*ap[i])
		r[i] = ri
		s += float64(ri * ri)
	}
	return s
}

func axpyPair(dst []float64, alpha float64, x []float64, beta float64, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] += float64(alpha*x[i]) + float64(beta*y[i])
	}
}

func xpbyInto(dst, x []float64, beta float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = x[i] + float64(beta*dst[i])
	}
}

func dot2(a, x, y []float64) (ax, ay float64) {
	x, y = x[:len(a)], y[:len(a)]
	var p0, p1, p2, p3, q0, q1, q2, q3 float64
	v := len(a) &^ 3
	for i := 0; i < v; i += 4 {
		a, x, y := a[i:i+4:i+4], x[i:i+4:i+4], y[i:i+4:i+4]
		p0 += float64(a[0] * x[0])
		p1 += float64(a[1] * x[1])
		p2 += float64(a[2] * x[2])
		p3 += float64(a[3] * x[3])
		q0 += float64(a[0] * y[0])
		q1 += float64(a[1] * y[1])
		q2 += float64(a[2] * y[2])
		q3 += float64(a[3] * y[3])
	}
	ax, ay = (p0+p2)+(p1+p3), (q0+q2)+(q1+q3)
	for i := v; i < len(a); i++ {
		ax += float64(a[i] * x[i])
		ay += float64(a[i] * y[i])
	}
	return ax, ay
}

func dotNorm(a, b []float64) (ab, bb float64) {
	b = b[:len(a)]
	var p0, p1, p2, p3, q0, q1, q2, q3 float64
	v := len(a) &^ 3
	for i := 0; i < v; i += 4 {
		a, b := a[i:i+4:i+4], b[i:i+4:i+4]
		p0 += float64(a[0] * b[0])
		p1 += float64(a[1] * b[1])
		p2 += float64(a[2] * b[2])
		p3 += float64(a[3] * b[3])
		q0 += float64(b[0] * b[0])
		q1 += float64(b[1] * b[1])
		q2 += float64(b[2] * b[2])
		q3 += float64(b[3] * b[3])
	}
	ab, bb = (p0+p2)+(p1+p3), (q0+q2)+(q1+q3)
	for i := v; i < len(a); i++ {
		ab += float64(a[i] * b[i])
		bb += float64(b[i] * b[i])
	}
	return ab, bb
}
