package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary interchange format for graphs, used by the durability subsystem
// (internal/wal) for checkpoints. Unlike the text format in io.go, it is
// lossless: edge weights round-trip as exact IEEE-754 bit patterns and the
// cached total-weight accumulator is carried verbatim, so a decoded graph is
// bit-identical to the encoded one — which is what makes crash recovery
// replay deterministic down to the last ULP.
//
// Layout (all multi-byte integers little-endian, varints are unsigned
// LEB128 as in encoding/binary):
//
//	magic   [4]byte  "IGB1"
//	n       uvarint  node count
//	m       uvarint  edge count
//	tw      uint64   TotalWeight() as math.Float64bits
//	edges   m × { u uvarint, v uvarint, w uint64 (Float64bits) }
//
// Edges appear in index order, so stable edge indices survive the round
// trip. The format carries no checksum of its own; containers that need
// integrity (WAL records, checkpoint files) frame it with a CRC.

var binaryMagic = [4]byte{'I', 'G', 'B', '1'}

// WriteBinary encodes g in the binary interchange format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := bw.Write(buf[:n])
		return err
	}
	putU64 := func(x uint64) error {
		binary.LittleEndian.PutUint64(buf[:8], x)
		_, err := bw.Write(buf[:8])
		return err
	}
	if err := putUvarint(uint64(g.n)); err != nil {
		return err
	}
	if err := putUvarint(uint64(g.m)); err != nil {
		return err
	}
	if err := putU64(math.Float64bits(g.totalWeight)); err != nil {
		return err
	}
	for _, e := range g.All() {
		if err := putUvarint(uint64(e.U)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.V)); err != nil {
			return err
		}
		if err := putU64(math.Float64bits(e.W)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a graph written by WriteBinary. The decoded graph is
// bit-identical to the encoded one: edge order, weight bits, and the cached
// total-weight accumulator all round-trip exactly. A header claiming more
// than math.MaxInt32 nodes or edges is an error. The header's edge count is
// not trusted for allocation: edges grow as they are read, and the pages
// and the adjacency arena are carved after the last one.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad binary magic %q", magic[:])
	}
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: binary node count: %w", err)
	}
	m64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: binary edge count: %w", err)
	}
	if n64 > math.MaxInt32 {
		return nil, fmt.Errorf("graph: binary header claims %d nodes, limit %d", n64, math.MaxInt32)
	}
	if m64 > math.MaxInt32 {
		return nil, fmt.Errorf("graph: binary header claims %d edges, limit %d", m64, math.MaxInt32)
	}
	twBits, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("graph: binary total weight: %w", err)
	}
	n, m := int(n64), int(m64)
	var edges []edge32
	for i := 0; i < m; i++ {
		u64, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: binary edge %d: %w", i, err)
		}
		v64, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: binary edge %d: %w", i, err)
		}
		wBits, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("graph: binary edge %d: %w", i, err)
		}
		if u64 >= n64 || v64 >= n64 || u64 == v64 {
			return nil, fmt.Errorf("graph: binary edge %d endpoints (%d, %d) invalid for %d nodes", i, u64, v64, n)
		}
		w := math.Float64frombits(wBits)
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: binary edge %d weight %v not positive finite", i, w)
		}
		edges = append(edges, edge32{U: int32(u64), V: int32(v64), W: w})
	}
	// Build storage directly instead of AddEdge: the cached totalWeight
	// must come from the file, not from re-accumulation, so that graphs
	// whose accumulator drifted through a long SetWeight history still
	// round-trip bit-exactly.
	g := &Graph{n: n, m: len(edges)}
	g.own()
	g.epages = g.carveEdgePages(pagesFor(g.m, edgePageShift))
	for k, p := range g.epages {
		copy(p.e[:], edges[k<<edgePageShift:])
	}
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	g.npages = g.carveNodePages(pagesFor(n, nodePageShift))
	carveLists(n, func(u int) int { return int(deg[u]) }, g.slot)
	for i, e := range edges {
		hu, hv := g.slot(int(e.U)), g.slot(int(e.V))
		*hu = append(*hu, Arc{To: e.V, Edge: int32(i)})
		*hv = append(*hv, Arc{To: e.U, Edge: int32(i)})
	}
	g.totalWeight = math.Float64frombits(twBits)
	return g, nil
}
