package kernel

import (
	"fmt"

	"ingrass/internal/graph"
)

// Pooled SELL-C-σ kernels. These mirror the CSR Laplacian entry points in
// kernels.go and multi.go, with the partition granularity lifted from rows
// to chunks: a span boundary never lands inside a chunk, so each original
// row is written by exactly one worker and every pooled product stays
// bit-identical to its serial counterpart — which graph.SELL in turn pins
// bit-identical to serial CSR. The partitions come from
// graph.SELL.NNZChunkPartition, balanced on padded slots (what the sliced
// kernels actually stream) rather than raw nnz.

// lapMulSellShare computes worker w's chunks of dst = L x over the sliced
// layout.
func lapMulSellShare(p *Pool, w int) {
	j := &p.job
	j.sell.LapMulChunks(j.dst, j.x, j.part[w], j.part[w+1])
}

func lapMulMultiSellShare(p *Pool, w int) {
	j := &p.job
	j.sell.LapMulMultiChunks(j.mdst, j.mx, j.part[w], j.part[w+1])
}

// spmvSerialSELL is spmvSerial for the sliced layout: same work cutover,
// expressed in SELL's own work units (padded slots + 2n).
func (p *Pool) spmvSerialSELL(s *graph.SELL, part []int) bool {
	return p == nil || len(part) != p.workers+1 || s.SpMVWork() < SpMVCutover
}

// checkSpMVSELL validates a pooled sliced SpMV before its job is published
// (see checkSpMV): vector lengths against N, partition endpoints against
// the chunk count.
func checkSpMVSELL(kernel string, s *graph.SELL, part []int, dst, x []float64) {
	checkLens(kernel, s.N, dst, x)
	if part[0] != 0 || part[len(part)-1] != s.NumChunks() {
		panic(fmt.Sprintf("kernel: %s partition [%d, %d] does not cover %d chunks",
			kernel, part[0], part[len(part)-1], s.NumChunks()))
	}
}

// LapMulSELL computes dst = L x over the slot-balanced chunk partition part
// (len Workers()+1, from graph.SELL.NNZChunkPartition). A nil pool, a
// mismatched partition width, or sub-cutover work runs the serial sliced
// kernel. Bit-identical to graph.CSR.LapMul for any partition.
func (p *Pool) LapMulSELL(s *graph.SELL, part []int, dst, x []float64) {
	if p.spmvSerialSELL(s, part) {
		s.LapMul(dst, x)
		return
	}
	checkSpMVSELL("LapMulSELL", s, part, dst, x)
	p.mu.Lock()
	p.job = job{sell: s, part: part, dst: dst, x: x}
	p.run(lapMulSellShare)
	p.mu.Unlock()
}

// LapMulMultiSELL computes dst[j] = L x[j] for every column over the sliced
// layout, reading each chunk's structure once per column pair. Routing
// mirrors LapMulMulti (a single column is the pooled LapMulSELL); each
// column is bit-identical to a serial CSR LapMul of that column alone.
func (p *Pool) LapMulMultiSELL(s *graph.SELL, part []int, dst, x [][]float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("kernel: LapMulMultiSELL block widths %d/%d", len(dst), len(x)))
	}
	switch {
	case len(x) == 0:
		return
	case len(x) == 1:
		p.LapMulSELL(s, part, dst[0], x[0])
		return
	case p.spmvSerialSELL(s, part):
		s.LapMulMulti(dst, x)
		return
	}
	if len(x) > graph.MaxMulti {
		panic(fmt.Sprintf("kernel: LapMulMultiSELL width %d exceeds MaxMulti=%d", len(x), graph.MaxMulti))
	}
	checkMulti("LapMulMultiSELL", len(x), s.N, dst, x)
	if part[0] != 0 || part[len(part)-1] != s.NumChunks() {
		panic(fmt.Sprintf("kernel: LapMulMultiSELL partition [%d, %d] does not cover %d chunks",
			part[0], part[len(part)-1], s.NumChunks()))
	}
	p.mu.Lock()
	p.job = job{sell: s, part: part, mdst: dst, mx: x}
	p.run(lapMulMultiSellShare)
	p.mu.Unlock()
}
