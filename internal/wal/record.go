package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ingrass/internal/core"
	"ingrass/internal/graph"
)

// BatchRecord is one applied write batch: everything the engine mutated in
// a single flush, in application order. Replaying the record against the
// state the previous generation left behind reproduces generation Gen
// exactly (ApplyTo): Adds go through one core.UpdateBatch pass (which
// re-sorts by distortion deterministically), then each deletion batch goes
// through core.DeleteEdges in order. Only *applied* mutations are logged —
// requests that failed validation never reach the WAL, so replay cannot
// fail where the original didn't.
type BatchRecord struct {
	// Gen is the snapshot generation this batch produced.
	Gen uint64
	// Adds are the inserted edges of the batch, in coalesced enqueue order.
	Adds []graph.Edge
	// DelBatches are the applied deletion requests, in application order.
	// Deletions identify edges by endpoints; weights are not stored.
	DelBatches [][]graph.Edge
	// Maint, when non-nil, makes this a maintenance record: the generation
	// was produced by a background setup-basis swap, not a write batch. A
	// maintenance record carries no edges (Adds and DelBatches must be
	// empty).
	Maint *MaintRecord
}

// ApplyTo applies the record to sp exactly as the engine applied the
// batch it logs, which is what recovery and replicas replay. A maintenance
// record repeats the background setup-basis swap: rebuild from the
// recorded snapshot, then catch the sketch up over the edges the preceding
// records appended. Otherwise the adds go in one UpdateBatch pass, then
// each deletion batch in order. Each pass validates before it mutates, so
// an invalid add leaves sp untouched.
func (r BatchRecord) ApplyTo(sp *core.Sparsifier) error {
	if r.Maint != nil {
		if err := sp.AdoptBasis(r.Maint.HBase, r.Maint.TargetCond); err != nil {
			return fmt.Errorf("wal: gen %d maintenance swap: %w", r.Gen, err)
		}
		return nil
	}
	if len(r.Adds) > 0 {
		if _, err := sp.UpdateBatch(r.Adds); err != nil {
			return fmt.Errorf("wal: gen %d adds: %w", r.Gen, err)
		}
	}
	for i, batch := range r.DelBatches {
		if _, err := sp.DeleteEdges(batch); err != nil {
			return fmt.Errorf("wal: gen %d delete batch %d: %w", r.Gen, i, err)
		}
	}
	return nil
}

// MaintRecord is the durable image of one background re-sparsification
// swap. Replaying core.AdoptBasis(HBase, TargetCond) after the preceding
// batch records reproduces the post-swap engine state bit-exactly: the live
// swap built its LRD decomposition and sketch from these same frozen
// snapshot bytes, and the sketch catch-up over later edges registers only
// (immutable) endpoints, so replay and live converge on identical
// structures (the persist.go invariant).
type MaintRecord struct {
	// TargetCond is the (possibly auto-tuned) target condition number the
	// rebuilt basis used.
	TargetCond float64
	// HBase is the frozen sparsifier snapshot the basis was built from.
	// The full graph is stored: sparsifier weights mutate in place (merge
	// and redistribution scaling, deletion tombstones), so no edge-count
	// prefix of the current sparsifier can reconstruct it.
	HBase *graph.Graph
}

// Record payload versions. A version-1 record is an applied write batch; a
// version-2 record is a maintenance swap.
const (
	recordVersion      = 1
	recordVersionMaint = 2
)

// appendUvarint appends x in unsigned LEB128.
func appendUvarint(b []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(b, tmp[:n]...)
}

// encode serializes the record payload (the frame adds length + CRC).
//
// Payload layout:
//
//	version     uvarint (currently 1)
//	gen         uvarint
//	nAdds       uvarint
//	adds        nAdds × { u uvarint, v uvarint, w uint64 LE (Float64bits) }
//	nDelBatches uvarint
//	delBatches  nDelBatches × { n uvarint, n × { u uvarint, v uvarint } }
//
// Maintenance records (version 2) instead carry the swap image:
//
//	version    uvarint (2)
//	gen        uvarint
//	targetCond uint64 LE (Float64bits)
//	hbaseLen   uvarint
//	hbase      binary graph (internal/graph.WriteBinary)
func (r BatchRecord) encode(buf []byte) []byte {
	buf = appendUvarint(buf[:0], recordVersion)
	buf = appendUvarint(buf, r.Gen)
	buf = appendUvarint(buf, uint64(len(r.Adds)))
	for _, e := range r.Adds {
		buf = appendUvarint(buf, uint64(e.U))
		buf = appendUvarint(buf, uint64(e.V))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
	}
	buf = appendUvarint(buf, uint64(len(r.DelBatches)))
	for _, batch := range r.DelBatches {
		buf = appendUvarint(buf, uint64(len(batch)))
		for _, e := range batch {
			buf = appendUvarint(buf, uint64(e.U))
			buf = appendUvarint(buf, uint64(e.V))
		}
	}
	return buf
}

// encodePayload serializes the record payload in the version its contents
// demand, returning an error for an unencodable record (a maintenance
// record missing its graph or mixing in batch edges).
func (r BatchRecord) encodePayload() ([]byte, error) {
	if r.Maint == nil {
		return r.encode(nil), nil
	}
	if r.Maint.HBase == nil {
		return nil, fmt.Errorf("wal: maintenance record without basis graph")
	}
	if len(r.Adds) > 0 || len(r.DelBatches) > 0 {
		return nil, fmt.Errorf("wal: maintenance record must not carry batch edges")
	}
	buf := appendUvarint(nil, recordVersionMaint)
	buf = appendUvarint(buf, r.Gen)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Maint.TargetCond))
	var gb bytes.Buffer
	if err := graph.WriteBinary(&gb, r.Maint.HBase); err != nil {
		return nil, err
	}
	buf = appendUvarint(buf, uint64(gb.Len()))
	buf = append(buf, gb.Bytes()...)
	return buf, nil
}

// byteReader walks an in-memory payload; every read error means the framed
// CRC lied about the payload's integrity, which callers surface as
// corruption.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: record truncated at offset %d", r.off)
	}
	r.off += n
	return x, nil
}

func (r *byteReader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("wal: record truncated at offset %d", r.off)
	}
	x := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return x, nil
}

// decodeRecord parses a framed payload back into a BatchRecord.
func decodeRecord(payload []byte) (BatchRecord, error) {
	var rec BatchRecord
	r := &byteReader{b: payload}
	ver, err := r.uvarint()
	if err != nil {
		return rec, err
	}
	switch ver {
	case recordVersion:
	case recordVersionMaint:
		return decodeMaintRecord(r, payload)
	default:
		return rec, fmt.Errorf("wal: record version %d not supported", ver)
	}
	if rec.Gen, err = r.uvarint(); err != nil {
		return rec, err
	}
	nAdds, err := r.uvarint()
	if err != nil {
		return rec, err
	}
	if nAdds > uint64(len(payload)) {
		return rec, fmt.Errorf("wal: record claims %d adds in %d bytes", nAdds, len(payload))
	}
	if nAdds > 0 {
		rec.Adds = make([]graph.Edge, nAdds)
		for i := range rec.Adds {
			u, err := r.uvarint()
			if err != nil {
				return rec, err
			}
			v, err := r.uvarint()
			if err != nil {
				return rec, err
			}
			w, err := r.u64()
			if err != nil {
				return rec, err
			}
			rec.Adds[i] = graph.Edge{U: int(u), V: int(v), W: math.Float64frombits(w)}
		}
	}
	nBatches, err := r.uvarint()
	if err != nil {
		return rec, err
	}
	if nBatches > uint64(len(payload)) {
		return rec, fmt.Errorf("wal: record claims %d delete batches in %d bytes", nBatches, len(payload))
	}
	if nBatches > 0 {
		rec.DelBatches = make([][]graph.Edge, nBatches)
		for b := range rec.DelBatches {
			n, err := r.uvarint()
			if err != nil {
				return rec, err
			}
			if n > uint64(len(payload)) {
				return rec, fmt.Errorf("wal: delete batch claims %d edges in %d bytes", n, len(payload))
			}
			batch := make([]graph.Edge, n)
			for i := range batch {
				u, err := r.uvarint()
				if err != nil {
					return rec, err
				}
				v, err := r.uvarint()
				if err != nil {
					return rec, err
				}
				batch[i] = graph.Edge{U: int(u), V: int(v)}
			}
			rec.DelBatches[b] = batch
		}
	}
	if r.off != len(payload) {
		return rec, fmt.Errorf("wal: %d trailing bytes after record", len(payload)-r.off)
	}
	return rec, nil
}

// decodeMaintRecord parses a version-2 payload after its version byte.
func decodeMaintRecord(r *byteReader, payload []byte) (BatchRecord, error) {
	var rec BatchRecord
	var err error
	if rec.Gen, err = r.uvarint(); err != nil {
		return rec, err
	}
	tc, err := r.u64()
	if err != nil {
		return rec, err
	}
	size, err := r.uvarint()
	if err != nil {
		return rec, err
	}
	if uint64(r.off)+size > uint64(len(payload)) {
		return rec, fmt.Errorf("wal: maintenance record graph block overruns payload")
	}
	g, err := graph.ReadBinary(bytes.NewReader(payload[r.off : r.off+int(size)]))
	if err != nil {
		return rec, err
	}
	r.off += int(size)
	if r.off != len(payload) {
		return rec, fmt.Errorf("wal: %d trailing bytes after maintenance record", len(payload)-r.off)
	}
	rec.Maint = &MaintRecord{TargetCond: math.Float64frombits(tc), HBase: g}
	return rec, nil
}

// recordGen peeks only the generation out of a payload (used by the open
// scan, which validates framing without materializing edge slices).
func recordGen(payload []byte) (uint64, error) {
	r := &byteReader{b: payload}
	ver, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if ver != recordVersion && ver != recordVersionMaint {
		return 0, fmt.Errorf("wal: record version %d not supported", ver)
	}
	return r.uvarint()
}
