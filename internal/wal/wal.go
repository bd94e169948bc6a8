// Package wal is the durability subsystem: a write-ahead log of applied
// edge batches plus binary checkpoints of the full sparsifier state, stored
// together in one data directory. The serving layer (internal/service)
// appends one BatchRecord per applied write batch *before* publishing the
// batch's snapshot generation to readers, and periodically persists a
// Checkpoint taken from copy-on-write snapshots, so recovery is
//
//	state = latest checkpoint  ⊕  replay of the WAL records after it
//
// and a restarted server reaches the exact pre-crash generation without
// re-running GRASS setup.
//
// # On-disk layout
//
// A data directory contains numbered log segments and checkpoint files:
//
//	wal-00000001.log            append-only record segments
//	wal-00000002.log            (rotated at Options.SegmentBytes; a fresh
//	...                          segment also starts after every checkpoint)
//	checkpoint-00000000000000000042.ckpt
//
// Every WAL record is framed as
//
//	'R'  (1 byte marker)
//	len  (uint32 LE, payload length)
//	crc  (uint32 LE, IEEE CRC-32 of the payload)
//	payload
//
// and the payload encodes one applied batch (see record.go). A torn final
// record — the crash landed mid-write — fails the marker/length/CRC check
// and is truncated away on open; the write it carried was never
// acknowledged (acknowledgement happens only after a successful append), so
// truncation loses nothing a client was promised. A crash can tear at most
// the very last frame on disk (each append completes before the next
// begins, and segments seal only after a complete append), so an invalid
// frame that is *followed by valid frames*, or that sits in any segment but
// the last, cannot be crash damage and is reported as ErrCorrupt instead of
// silently dropped.
//
// Checkpoint files are written to a temporary name, fsynced, and atomically
// renamed, so a crash mid-checkpoint leaves the previous checkpoint intact.
// After a successful checkpoint the store seals the active segment and
// deletes every sealed segment whose records are all covered by the
// checkpoint.
//
// # Fsync policy
//
// Options.Sync picks the durability/latency trade-off: SyncAlways fsyncs
// after every appended record (a crash loses nothing acknowledged),
// SyncInterval fsyncs at most once per Options.SyncEvery (a crash loses at
// most that window), SyncNever leaves flushing to the OS page cache.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"ingrass/internal/obs"
)

// Typed failures of the durability layer.
var (
	// ErrCorrupt reports framing or checksum damage that cannot be
	// explained by a torn final write (which is repaired silently).
	ErrCorrupt = errors.New("wal: corrupt data")
	// ErrNoCheckpoint reports a recovery attempt against a data directory
	// that holds no (readable) checkpoint.
	ErrNoCheckpoint = errors.New("wal: no checkpoint in data directory")
	// ErrClosed reports use of a closed Store.
	ErrClosed = errors.New("wal: store closed")
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery, amortizing
	// the disk flush over a burst of batches.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS flushes at its leisure.
	SyncNever
)

// String renders the policy in the CLI's --fsync vocabulary.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the CLI's --fsync vocabulary.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options configures a Store.
type Options struct {
	// SegmentBytes rotates the active log segment once it exceeds this
	// size. Default 64 MiB.
	SegmentBytes int64
	// Sync is the fsync policy for appended records. Default SyncAlways.
	Sync SyncPolicy
	// SyncEvery is the flush interval for SyncInterval. Default 100ms.
	SyncEvery time.Duration

	// AppendDur, SyncDur, and CheckpointDur, when non-nil, receive
	// nanosecond wall-clock timings of record appends (framing through
	// fsync), explicit fsyncs of the active segment, and checkpoint writes.
	// obs histograms observe safely through nil receivers, so the store
	// records unconditionally and an unwired store pays three predicted
	// branches per append.
	AppendDur     *obs.Histogram
	SyncDur       *obs.Histogram
	CheckpointDur *obs.Histogram

	// FailAppend is a fault-injection hook for tests (see fault.go): when
	// non-nil it runs under the store lock before any bytes of an append
	// reach the file, and a non-nil return fails the Append with no on-disk
	// effect — the shape of an ENOSPC-class error. Production code leaves
	// it nil.
	FailAppend func(BatchRecord) error
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	return o
}

// Record framing constants.
const (
	recordMarker    = byte('R')
	frameHeaderSize = 1 + 4 + 4 // marker + length + crc
	// maxRecordBytes bounds a single record payload; a framed length beyond
	// it is treated as corruption rather than attempted as an allocation.
	maxRecordBytes = 1 << 30
)

var crcTable = crc32.IEEETable

// writeFrame frames payload and writes it to w, returning the bytes written.
func writeFrame(w io.Writer, payload []byte) (int, error) {
	var hdr [frameHeaderSize]byte
	hdr[0] = recordMarker
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return frameHeaderSize + len(payload), nil
}

// errTorn marks a frame-read failure consistent with a torn trailing write:
// clean EOF mid-frame, a bad marker, an implausible length, or a CRC
// mismatch. Callers translate it to either silent truncation (tail of the
// last segment) or ErrCorrupt (anywhere else).
var errTorn = errors.New("wal: torn or invalid frame")

// readFrame reads one framed payload from r. It returns (nil, io.EOF) at a
// clean segment end and (nil, errTorn) for anything that does not parse as
// a complete, checksummed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn
	}
	if hdr[0] != recordMarker {
		return nil, errTorn
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, errTorn
	}
	length := binary.LittleEndian.Uint32(hdr[1:5])
	if length > maxRecordBytes {
		return nil, errTorn
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTorn
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[5:9]) {
		return nil, errTorn
	}
	return payload, nil
}
