package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// SELL-C-σ (sliced ELLPACK): the cache-aware sparse format behind the
// tier-2 kernel engine. The CSR Laplacian product is bound by its memory
// access pattern — per row it streams RowPtr, then a variable-length burst
// of (ColIdx, Weights) pairs, with a branch misprediction tax wherever row
// lengths vary. SELL-C-σ reorganizes the same nonzeros for regular access:
//
//   - rows are sorted by descending length inside windows of σ rows (the
//     sort window bounds how far a row can move from its neighbors, keeping
//     x-vector locality),
//   - sorted rows are grouped into chunks of C = SellC rows,
//   - each chunk stores its rows' entries column-major, padded to the
//     chunk's longest row: slot k of lanes 0..C-1 are adjacent in memory.
//
// One pass over a chunk advances C independent row accumulators with unit-
// stride loads of Cols/Vals — the access pattern SIMD units and hardware
// prefetchers want — and the σ-window sort keeps the padding (the price of
// the regular layout) small on skewed degree distributions.
//
// Bit-identity contract: per original row, the accumulation order is
// exactly CSR's — the diagonal term first, then the row's entries in CSR
// storage order. Entries keep their per-row order in the slots, the kernels
// walk slots in ascending order for every lane, and padded slots are NEVER
// read (the uniform loop stops at the chunk's minimum real row length and
// per-lane remainder loops finish each longer row), so the SELL products
// are bit-for-bit equal to their serial CSR counterparts — the same
// guarantee the pooled CSR kernels give, extended to the sliced layout.
// (Executing padded slots would not be bit-neutral: 0*x[j] carries x[j]'s
// sign, and subtracting a -0 flips a -0 accumulator to +0.)
type SELL struct {
	N     int
	Sigma int // row-sort window (rows)

	ChunkPtr []int   // len NumChunks()+1: slot offset of each chunk's storage
	ChunkLen []int32 // slots per lane in each chunk (longest row)
	ChunkMin []int32 // shortest real row in each chunk (uniform-loop bound)
	Cols     []int32 // padded column indices, column-major per chunk
	Vals     []float64
	Perm     []int32   // sorted row -> original row id
	RowLen   []int32   // real entries per sorted row
	Degree   []float64 // Laplacian diagonal, shared with the source CSR
}

// SellC is the chunk height C: the number of rows advanced per slot step,
// matched to the 4-lane AVX2 float64 vector width the vecmath kernels
// target. Chunks are the pooled kernels' work granule — partitions split on
// chunk boundaries, never inside one.
const SellC = 4

// DefaultSellSigma is the default row-sort window. One window spans many
// chunks (64 at C=4), enough reordering freedom to absorb mesh-like and
// moderately skewed degree variance, while bounding how far the sort can
// scatter x-vector access.
const DefaultSellSigma = 256

// sellOrder computes the σ-window row permutation (descending row length,
// stable on original id within each window) and the per-chunk slot counts.
// Shared by SellFootprint (which needs sizes before anything is allocated)
// and NewSELL.
func sellOrder(c *CSR, sigma int) (order []int, chunkLen []int32, slots int) {
	n := c.N
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	rl := func(u int) int { return c.RowPtr[u+1] - c.RowPtr[u] }
	for w0 := 0; w0 < n; w0 += sigma {
		w1 := w0 + sigma
		if w1 > n {
			w1 = n
		}
		slices.SortFunc(order[w0:w1], func(a, b int) int {
			return cmp.Or(cmp.Compare(rl(b), rl(a)), cmp.Compare(a, b))
		})
	}
	chunks := (n + SellC - 1) / SellC
	chunkLen = make([]int32, chunks)
	for ch := 0; ch < chunks; ch++ {
		maxLen := 0
		for r := ch * SellC; r < (ch+1)*SellC && r < n; r++ {
			if l := rl(order[r]); l > maxLen {
				maxLen = l
			}
		}
		chunkLen[ch] = int32(maxLen)
		slots += SellC * maxLen
	}
	return order, chunkLen, slots
}

// SellFootprint predicts, without building anything, the arena bytes a
// SELL view of c would occupy and its padding ratio (padded slots that hold
// no real entry, as a fraction of all slots). The freeze path uses the
// ratio for format selection and the bytes for exact arena sizing.
func SellFootprint(c *CSR, sigma int) (bytes int, padRatio float64) {
	if sigma < 1 {
		sigma = DefaultSellSigma
	}
	_, chunkLen, slots := sellOrder(c, sigma)
	chunks := len(chunkLen)
	// ChunkPtr + ChunkLen + ChunkMin + Cols + Vals + Perm + RowLen.
	bytes = 8*(chunks+1) + 4*chunks + 4*chunks + 4*slots + 8*slots + 4*c.N + 4*c.N
	if slots > 0 {
		padRatio = float64(slots-c.NNZ()) / float64(slots)
	}
	return bytes, padRatio
}

// NewSELL freezes a SELL-C-σ view of c. sigma < 1 selects
// DefaultSellSigma; alloc == nil builds on the heap (the freeze path passes
// a kernel.Arena so the whole operator lands in one block). The CSR stays
// the structural source of truth (Neighbors, partitions, degree); the SELL
// view shares its Degree slice and copies the off-diagonal entries into the
// sliced layout.
func NewSELL(c *CSR, sigma int, alloc Alloc) *SELL {
	if sigma < 1 {
		sigma = DefaultSellSigma
	}
	if c.N > 0 && c.N > (1<<31)-1 {
		panic(fmt.Sprintf("graph: SELL row count %d exceeds int32", c.N))
	}
	order, chunkLen, slots := sellOrder(c, sigma)
	n := c.N
	chunks := len(chunkLen)
	s := &SELL{
		N:        n,
		Sigma:    sigma,
		ChunkPtr: allocInt(alloc, chunks+1),
		ChunkLen: chunkLen,
		ChunkMin: allocInt32(alloc, chunks),
		Cols:     allocInt32(alloc, slots),
		Vals:     allocFloat64(alloc, slots),
		Perm:     allocInt32(alloc, n),
		RowLen:   allocInt32(alloc, n),
		Degree:   c.Degree,
	}
	if alloc != nil {
		// chunkLen came from the heap-side sizing pass; re-home it.
		s.ChunkLen = allocInt32(alloc, chunks)
		copy(s.ChunkLen, chunkLen)
	}
	off := 0
	for ch := 0; ch < chunks; ch++ {
		s.ChunkPtr[ch] = off
		off += SellC * int(s.ChunkLen[ch])
	}
	s.ChunkPtr[chunks] = off

	for r, u := range order {
		s.Perm[r] = int32(u)
		s.RowLen[r] = int32(c.RowPtr[u+1] - c.RowPtr[u])
	}
	for ch := 0; ch < chunks; ch++ {
		base := s.ChunkPtr[ch]
		r0 := ch * SellC
		minLen := int32(0)
		for lane := 0; lane < SellC && r0+lane < n; lane++ {
			r := r0 + lane
			u := int(s.Perm[r])
			row := c.RowPtr[u]
			for k := 0; k < int(s.RowLen[r]); k++ {
				idx := base + k*SellC + lane
				s.Cols[idx] = int32(c.ColIdx[row+k])
				s.Vals[idx] = c.Weights[row+k]
			}
			// Padded slots stay (0, 0): in-bounds but never read.
			if lane == 0 || s.RowLen[r] < minLen {
				minLen = s.RowLen[r]
			}
		}
		s.ChunkMin[ch] = minLen
	}
	return s
}

// NumChunks returns the number of C-row chunks.
func (s *SELL) NumChunks() int { return len(s.ChunkLen) }

// NNZ returns the number of real (non-padding) stored entries.
func (s *SELL) NNZ() int {
	var t int
	for _, l := range s.RowLen {
		t += int(l)
	}
	return t
}

// Slots returns the total padded storage slots.
func (s *SELL) Slots() int { return s.ChunkPtr[s.NumChunks()] }

// PaddingRatio reports the fraction of slots holding no real entry.
func (s *SELL) PaddingRatio() float64 {
	if s.Slots() == 0 {
		return 0
	}
	return float64(s.Slots()-s.NNZ()) / float64(s.Slots())
}

// SpMVWork is the abstract cost of one product over the sliced layout:
// every padded slot is streamed (even though padding is not accumulated)
// plus a diagonal term and store per row. Comparable with CSR.SpMVWork for
// the kernel pool's fork cutover.
func (s *SELL) SpMVWork() int { return s.Slots() + 2*s.N }

// NNZChunkPartition splits the chunks into the given number of contiguous
// spans of near-equal work (slots plus a constant per row), returning chunk
// boundaries of length parts+1 with part[0] = 0 and part[parts] =
// NumChunks(). The pooled SELL kernels dispatch over these spans: chunk-
// granular, so no two workers ever share a chunk's lanes — each original
// row is written by exactly one worker, preserving bit-identity for every
// width (the same argument as CSR.NNZPartition, lifted from rows to
// chunks).
func (s *SELL) NNZChunkPartition(parts int) []int {
	chunks := s.NumChunks()
	if parts < 1 {
		parts = 1
	}
	if parts > chunks && chunks > 0 {
		parts = chunks
	}
	part := make([]int, parts+1)
	total := s.SpMVWork()
	for i := 1; i < parts; i++ {
		target := total * i / parts
		part[i] = sort.Search(chunks, func(ch int) bool {
			return s.ChunkPtr[ch]+2*SellC*ch >= target
		})
	}
	part[parts] = chunks
	for i := 1; i <= parts; i++ {
		if part[i] < part[i-1] {
			part[i] = part[i-1]
		}
	}
	return part
}

func (s *SELL) checkDims(kernel string, dst, x []float64) {
	if len(x) != s.N || len(dst) != s.N {
		panic(fmt.Sprintf("graph: SELL %s dims %d/%d vs N=%d", kernel, len(dst), len(x), s.N))
	}
}

// LapMul computes dst = (D - A) x over the sliced layout; bit-identical to
// CSR.LapMul.
func (s *SELL) LapMul(dst, x []float64) {
	s.checkDims("LapMul", dst, x)
	s.LapMulChunks(dst, x, 0, s.NumChunks())
}

// lapTail finishes lane's row from slot `from` to its real length: the
// per-lane remainder beyond the chunk's uniform minimum.
func (s *SELL) lapTail(acc float64, x []float64, base, from, to, lane int) float64 {
	for k := from; k < to; k++ {
		idx := base + k*SellC + lane
		acc -= float64(s.Vals[idx] * x[s.Cols[idx]])
	}
	return acc
}

// LapMulChunks applies the Laplacian product for chunks [c0, c1) — the
// shared body of LapMul and the pooled chunk-partitioned kernel. The
// uniform loop advances all C lanes in lockstep with unit-stride structure
// loads up to the chunk's minimum row length; σ-sorting makes the per-lane
// remainders short. Callers must have validated dimensions.
func (s *SELL) LapMulChunks(dst, x []float64, c0, c1 int) {
	for ch := c0; ch < c1; ch++ {
		base := s.ChunkPtr[ch]
		r0 := ch * SellC
		if r0+SellC <= s.N {
			u0, u1, u2, u3 := s.Perm[r0], s.Perm[r0+1], s.Perm[r0+2], s.Perm[r0+3]
			a0 := s.Degree[u0] * x[u0]
			a1 := s.Degree[u1] * x[u1]
			a2 := s.Degree[u2] * x[u2]
			a3 := s.Degree[u3] * x[u3]
			m := int(s.ChunkMin[ch])
			off := base
			for k := 0; k < m; k++ {
				a0 -= float64(s.Vals[off] * x[s.Cols[off]])
				a1 -= float64(s.Vals[off+1] * x[s.Cols[off+1]])
				a2 -= float64(s.Vals[off+2] * x[s.Cols[off+2]])
				a3 -= float64(s.Vals[off+3] * x[s.Cols[off+3]])
				off += SellC
			}
			if int(s.ChunkLen[ch]) > m {
				a0 = s.lapTail(a0, x, base, m, int(s.RowLen[r0]), 0)
				a1 = s.lapTail(a1, x, base, m, int(s.RowLen[r0+1]), 1)
				a2 = s.lapTail(a2, x, base, m, int(s.RowLen[r0+2]), 2)
				a3 = s.lapTail(a3, x, base, m, int(s.RowLen[r0+3]), 3)
			}
			dst[u0] = a0
			dst[u1] = a1
			dst[u2] = a2
			dst[u3] = a3
			continue
		}
		// Partial tail chunk: fewer than C real rows; per-lane scalar walk.
		for lane := 0; r0+lane < s.N; lane++ {
			r := r0 + lane
			u := s.Perm[r]
			dst[u] = s.lapTail(s.Degree[u]*x[u], x, base, 0, int(s.RowLen[r]), lane)
		}
	}
}

// lapMulChunk2 applies one chunk's Laplacian product to two columns in one
// structure pass: chunk structure (Cols/Vals) is read once for both
// columns, the blocked-solver amortization lifted onto the sliced layout.
// Per-lane, per-column accumulation order matches LapMulChunks exactly.
func (s *SELL) lapMulChunk2(ch int, d0, d1, x0, x1 []float64) {
	base := s.ChunkPtr[ch]
	r0 := ch * SellC
	if r0+SellC <= s.N {
		u0, u1, u2, u3 := s.Perm[r0], s.Perm[r0+1], s.Perm[r0+2], s.Perm[r0+3]
		deg0, deg1, deg2, deg3 := s.Degree[u0], s.Degree[u1], s.Degree[u2], s.Degree[u3]
		p0 := deg0 * x0[u0]
		p1 := deg1 * x0[u1]
		p2 := deg2 * x0[u2]
		p3 := deg3 * x0[u3]
		q0 := deg0 * x1[u0]
		q1 := deg1 * x1[u1]
		q2 := deg2 * x1[u2]
		q3 := deg3 * x1[u3]
		m := int(s.ChunkMin[ch])
		off := base
		for k := 0; k < m; k++ {
			w0, c0 := s.Vals[off], s.Cols[off]
			w1, c1 := s.Vals[off+1], s.Cols[off+1]
			w2, c2 := s.Vals[off+2], s.Cols[off+2]
			w3, c3 := s.Vals[off+3], s.Cols[off+3]
			p0 -= float64(w0 * x0[c0])
			q0 -= float64(w0 * x1[c0])
			p1 -= float64(w1 * x0[c1])
			q1 -= float64(w1 * x1[c1])
			p2 -= float64(w2 * x0[c2])
			q2 -= float64(w2 * x1[c2])
			p3 -= float64(w3 * x0[c3])
			q3 -= float64(w3 * x1[c3])
			off += SellC
		}
		if int(s.ChunkLen[ch]) > m {
			p0 = s.lapTail(p0, x0, base, m, int(s.RowLen[r0]), 0)
			q0 = s.lapTail(q0, x1, base, m, int(s.RowLen[r0]), 0)
			p1 = s.lapTail(p1, x0, base, m, int(s.RowLen[r0+1]), 1)
			q1 = s.lapTail(q1, x1, base, m, int(s.RowLen[r0+1]), 1)
			p2 = s.lapTail(p2, x0, base, m, int(s.RowLen[r0+2]), 2)
			q2 = s.lapTail(q2, x1, base, m, int(s.RowLen[r0+2]), 2)
			p3 = s.lapTail(p3, x0, base, m, int(s.RowLen[r0+3]), 3)
			q3 = s.lapTail(q3, x1, base, m, int(s.RowLen[r0+3]), 3)
		}
		d0[u0], d1[u0] = p0, q0
		d0[u1], d1[u1] = p1, q1
		d0[u2], d1[u2] = p2, q2
		d0[u3], d1[u3] = p3, q3
		return
	}
	for lane := 0; r0+lane < s.N; lane++ {
		r := r0 + lane
		u := s.Perm[r]
		d0[u] = s.lapTail(s.Degree[u]*x0[u], x0, base, 0, int(s.RowLen[r]), lane)
		d1[u] = s.lapTail(s.Degree[u]*x1[u], x1, base, 0, int(s.RowLen[r]), lane)
	}
}

// LapMulMulti computes dst[j] = L x[j] for every column over the sliced
// layout, reading each chunk's structure once per column pair. Column j is
// bit-identical to a serial CSR LapMul of that column alone; widths follow
// the same MaxMulti bound as CSR.LapMulMulti.
func (s *SELL) LapMulMulti(dst, x [][]float64) {
	b := len(x)
	if len(dst) != b {
		panic(fmt.Sprintf("graph: SELL LapMulMulti block widths %d/%d", len(dst), b))
	}
	if b == 0 {
		return
	}
	if b > MaxMulti {
		panic(fmt.Sprintf("graph: SELL LapMulMulti width %d exceeds MaxMulti=%d", b, MaxMulti))
	}
	for j := 0; j < b; j++ {
		if len(x[j]) != s.N || len(dst[j]) != s.N {
			panic(fmt.Sprintf("graph: SELL LapMulMulti column %d dims %d/%d vs N=%d", j, len(dst[j]), len(x[j]), s.N))
		}
	}
	s.LapMulMultiChunks(dst, x, 0, s.NumChunks())
}

// LapMulMultiChunks applies the blocked Laplacian product to chunks
// [c0, c1) — the shared body of LapMulMulti and the pooled multi kernel.
// Chunks are the outer loop so a chunk's structure stays cache-resident
// across the whole column block; a single column runs the single-vector
// body over the whole range instead of re-entering it once per chunk.
// Callers must have validated dimensions.
func (s *SELL) LapMulMultiChunks(dst, x [][]float64, c0, c1 int) {
	b := len(x)
	if b == 1 {
		s.LapMulChunks(dst[0], x[0], c0, c1)
		return
	}
	for ch := c0; ch < c1; ch++ {
		j := 0
		for ; j+2 <= b; j += 2 {
			s.lapMulChunk2(ch, dst[j], dst[j+1], x[j], x[j+1])
		}
		if j < b {
			s.LapMulChunks(dst[j], x[j], ch, ch+1)
		}
	}
}
