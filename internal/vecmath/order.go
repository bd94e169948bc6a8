package vecmath

import "math"

// Order returns the positions 0..len(keys)-1 sorted by key, ascending, or
// descending when desc is set; equal keys keep their positions in
// ascending order. This is the permutation a stable sort of the positions
// by key gives, where −0 and +0 compare equal and ±Inf sort at the ends, so
// it matches any comparator that orders by key and breaks ties by position.
// Keys must not be NaN.
//
// It is an LSD radix sort (McIlroy, Bostic & McIlroy, "Engineering Radix
// Sort", 1993): each key maps to uint64 bits whose unsigned order is the
// key order, and eight stable counting passes, one per byte from the least
// significant, order the positions. A pass is skipped when every key has
// the same byte there. All scratch is allocated per call.
func Order(keys []float64, desc bool) []int32 {
	n := len(keys)
	bits := make([]uint64, 2*n)
	pos := make([]int32, 2*n)
	src, dst := bits[:n], bits[n:]
	psrc, pdst := pos[:n], pos[n:]
	var counts [8][256]int32
	var flip uint64
	if desc {
		flip = ^uint64(0)
	}
	for i, k := range keys {
		b := math.Float64bits(k)
		switch {
		case k == 0:
			b = 1 << 63 // −0 folds onto +0
		case b>>63 != 0:
			b = ^b // negative: larger magnitude sorts first
		default:
			b |= 1 << 63
		}
		b ^= flip // descending: reverse the unsigned order
		src[i] = b
		psrc[i] = int32(i)
		counts[0][byte(b)]++
		counts[1][byte(b>>8)]++
		counts[2][byte(b>>16)]++
		counts[3][byte(b>>24)]++
		counts[4][byte(b>>32)]++
		counts[5][byte(b>>40)]++
		counts[6][byte(b>>48)]++
		counts[7][byte(b>>56)]++
	}
	if n == 0 {
		return psrc
	}
	for d := range counts {
		shift := 8 * uint(d)
		c := &counts[d]
		if c[byte(src[0]>>shift)] == int32(n) {
			continue // every key shares this byte
		}
		var sum int32
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		for i, b := range src {
			k := byte(b >> shift)
			j := c[k]
			c[k] = j + 1
			dst[j] = b
			pdst[j] = psrc[i]
		}
		src, dst = dst, src
		psrc, pdst = pdst, psrc
	}
	return psrc
}
