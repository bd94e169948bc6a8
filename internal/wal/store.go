package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ingrass/internal/core"
)

const (
	segmentPrefix    = "wal-"
	segmentSuffix    = ".log"
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
)

// segment is one sealed (read-only) log file.
type segment struct {
	path    string
	seq     uint64
	maxGen  uint64 // highest record generation inside (0 if empty)
	records int
	bytes   int64 // valid framed bytes (retention-cap accounting)
}

// Store is the on-disk durability state of one engine: a directory of WAL
// segments plus checkpoint files. All methods are safe for concurrent use;
// Append and WriteCheckpoint may race freely because recovery filters
// replay by generation, not by file position.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	sealed []segment // ascending seq
	active *os.File
	cur    segment // the active segment's bookkeeping
	curLen int64

	lastGen uint64 // highest generation appended to the WAL
	ckGen   uint64 // latest checkpoint generation
	hasCk   bool
	closed  bool
	// dirty marks unsynced appended bytes in the active segment (the
	// SyncInterval flusher's work queue).
	dirty bool
	// damaged marks an active segment whose tail may hold a partial frame
	// from a failed append that could not be truncated away. Appending
	// behind such garbage would be fatal later: the next Open would stop
	// scanning at the torn frame and silently truncate every record after
	// it. So while damaged, Append refuses, and the next WriteCheckpoint
	// (which covers every record the segment holds) abandons the segment
	// and starts a fresh one.
	damaged bool

	// retains are the live retention refs pinning records against pruning;
	// prunedGen is the highest generation pruning may have removed (see
	// repl.go). appendSig, when non-nil, is closed by the next successful
	// append — the long-poll wakeup for tail streaming.
	retains   map[*RetainRef]struct{}
	prunedGen uint64
	appendSig chan struct{}

	// SyncInterval background flusher lifecycle.
	flushQuit chan struct{}
	flushWG   sync.WaitGroup
}

// Open opens (creating if needed) the data directory, validates every
// segment, truncates a torn trailing record, and positions the store for
// appends. Corruption anywhere but the tail of the last segment returns
// ErrCorrupt.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, opts: opts.withDefaults()}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, checkpointSuffix+".tmp"):
			// A crash between the tmp write and the rename left a stray
			// state-sized file; no later checkpoint reuses its name.
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix):
			seqStr := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
			seq, err := strconv.ParseUint(seqStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: unparseable segment name %q", ErrCorrupt, name)
			}
			segs = append(segs, segment{path: filepath.Join(dir, name), seq: seq})
		case strings.HasPrefix(name, checkpointPrefix) && strings.HasSuffix(name, checkpointSuffix):
			genStr := strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix)
			gen, err := strconv.ParseUint(genStr, 10, 64)
			if err != nil {
				continue // stray file; ignore
			}
			if !st.hasCk || gen > st.ckGen {
				st.ckGen, st.hasCk = gen, true
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })

	// Validate each segment; repair the last one's tail if torn. A torn
	// write can only be the final frame of the final segment — anything
	// else is corruption and recovery must not silently drop records.
	for i := range segs {
		last := i == len(segs)-1
		maxGen, records, validLen, err := scanSegment(segs[i].path, st.lastGen)
		if err != nil {
			if err == errTorn && last {
				if terr := os.Truncate(segs[i].path, validLen); terr != nil {
					return nil, terr
				}
			} else if err == errTorn || err == errCorruptMid {
				return nil, fmt.Errorf("%w: segment %s damaged before its tail", ErrCorrupt, segs[i].path)
			} else {
				return nil, err
			}
		}
		segs[i].maxGen = maxGen
		segs[i].records = records
		segs[i].bytes = validLen
		if maxGen > st.lastGen {
			st.lastGen = maxGen
		}
	}

	// Records at or below the newest checkpoint may have been pruned by a
	// previous process; assume conservatively that they were. Replication
	// readers always resume from a checkpoint generation, so the pessimism
	// costs at most one redundant checkpoint re-bootstrap.
	if st.hasCk {
		st.prunedGen = st.ckGen
	}

	// The highest-numbered segment becomes the active one; everything
	// before it is sealed.
	if len(segs) == 0 {
		if err := st.openFreshSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		st.sealed = segs[:len(segs)-1]
		tail := segs[len(segs)-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		st.active, st.cur, st.curLen = f, tail, info.Size()
	}

	// SyncInterval's loss bound ("at most SyncEvery") needs a wall-clock
	// flusher: without one, the last write before an idle period would stay
	// unsynced indefinitely.
	if st.opts.Sync == SyncInterval {
		st.flushQuit = make(chan struct{})
		st.flushWG.Add(1)
		go st.flushLoop()
	}
	return st, nil
}

// flushLoop fsyncs the active segment every SyncEvery while it has
// unsynced appends (SyncInterval policy only).
func (st *Store) flushLoop() {
	defer st.flushWG.Done()
	ticker := time.NewTicker(st.opts.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st.mu.Lock()
			if !st.closed && st.dirty {
				s0 := time.Now()
				err := st.active.Sync()
				st.opts.SyncDur.ObserveSince(s0)
				if err == nil {
					st.dirty = false
				}
			}
			st.mu.Unlock()
		case <-st.flushQuit:
			return
		}
	}
}

// errCorruptMid marks an invalid frame that is followed by further valid
// frames. A crash tears at most the very last frame (each append completes
// before the next begins), so valid data *after* the damage proves this is
// real corruption — truncating there would silently discard acknowledged
// records.
var errCorruptMid = errors.New("wal: damaged frame followed by valid data")

// scanSegment walks one segment, checking frames and generation
// monotonicity. It returns the highest generation seen, the record count,
// and the byte offset up to which the segment is valid; err is errTorn when
// the walk stopped at a torn trailing frame and errCorruptMid when the
// invalid frame has valid frames after it.
func scanSegment(path string, prevGen uint64) (maxGen uint64, records int, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	fail := func() error {
		if hasValidFrameAfter(data, int(validLen)+1) {
			return errCorruptMid
		}
		return errTorn
	}
	br := bytes.NewReader(data)
	gen := prevGen
	for {
		payload, ferr := readFrame(br)
		if ferr == io.EOF {
			return maxGen, records, validLen, nil
		}
		if ferr != nil {
			return maxGen, records, validLen, fail()
		}
		g, derr := recordGen(payload)
		if derr != nil || g <= gen {
			// Undecodable-but-checksummed, or generation going backwards:
			// classify by what follows, like any other bad frame.
			return maxGen, records, validLen, fail()
		}
		gen, maxGen = g, g
		records++
		validLen += int64(frameHeaderSize + len(payload))
	}
}

// hasValidFrameAfter reports whether any complete, checksummed frame starts
// at or after offset from — the discriminator between a torn tail (nothing
// valid can follow) and mid-segment damage.
func hasValidFrameAfter(data []byte, from int) bool {
	for i := from; i+frameHeaderSize <= len(data); i++ {
		if data[i] != recordMarker {
			continue
		}
		length := binary.LittleEndian.Uint32(data[i+1 : i+5])
		if length > maxRecordBytes || i+frameHeaderSize+int(length) > len(data) {
			continue
		}
		payload := data[i+frameHeaderSize : i+frameHeaderSize+int(length)]
		if crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(data[i+5:i+9]) {
			return true
		}
	}
	return false
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
}

func checkpointPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", checkpointPrefix, gen, checkpointSuffix))
}

// openFreshSegmentLocked creates and activates segment seq.
func (st *Store) openFreshSegmentLocked(seq uint64) error {
	path := segmentPath(st.dir, seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	st.active = f
	st.cur = segment{path: path, seq: seq}
	st.curLen = 0
	return nil
}

// sealActiveLocked fsyncs and closes the active segment, moving it to the
// sealed list, and opens the next one.
func (st *Store) sealActiveLocked() error {
	if err := st.active.Sync(); err != nil {
		return err
	}
	if err := st.active.Close(); err != nil {
		return err
	}
	st.cur.bytes = st.curLen
	st.sealed = append(st.sealed, st.cur)
	st.dirty = false
	return st.openFreshSegmentLocked(st.cur.seq + 1)
}

// Append frames rec, writes it to the active segment, applies the fsync
// policy, and rotates the segment if it outgrew Options.SegmentBytes. It
// returns the framed size in bytes.
func (st *Store) Append(rec BatchRecord) (int, error) {
	n, _, err := st.AppendTimed(rec)
	return n, err
}

// AppendTimed is Append, additionally reporting how long the fsync took
// (zero unless the policy is SyncAlways). The write path's tracer uses it
// to carve an fsync span out of the append span without a second clock
// read inside the store.
func (st *Store) AppendTimed(rec BatchRecord) (int, time.Duration, error) {
	start := time.Now()
	defer st.opts.AppendDur.ObserveSince(start)
	payload, err := rec.encodePayload()
	if err != nil {
		return 0, 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, 0, ErrClosed
	}
	if st.damaged {
		return 0, 0, fmt.Errorf("wal: active segment damaged by an earlier failed append; a checkpoint must rotate it first")
	}
	if f := st.opts.FailAppend; f != nil {
		if err := f(rec); err != nil {
			return 0, 0, err
		}
	}
	n, err := writeFrame(st.active, payload)
	if err != nil {
		// A partial frame may be on disk. Cut the file back to its
		// pre-append length so the segment stays cleanly framed; if even
		// that fails, quarantine the segment — appending behind torn bytes
		// would make the next Open truncate every later record away.
		if terr := st.active.Truncate(st.curLen); terr != nil {
			st.damaged = true
		}
		return 0, 0, err
	}
	st.curLen += int64(n)
	if rec.Gen > st.lastGen {
		st.lastGen = rec.Gen
	}
	if rec.Gen > st.cur.maxGen {
		st.cur.maxGen = rec.Gen
	}
	st.cur.records++
	st.signalAppendLocked()

	var syncDur time.Duration
	switch st.opts.Sync {
	case SyncAlways:
		s0 := time.Now()
		err := st.active.Sync()
		syncDur = time.Since(s0)
		st.opts.SyncDur.Observe(int64(syncDur))
		if err != nil {
			return n, syncDur, err
		}
	case SyncInterval:
		st.dirty = true // the flusher syncs within SyncEvery
	}
	if st.curLen >= st.opts.SegmentBytes {
		if err := st.sealActiveLocked(); err != nil {
			return n, syncDur, err
		}
	}
	return n, syncDur, nil
}

// Replay streams every record with Gen > afterGen, in order, to fn. It is
// intended to run once before the engine starts appending; fn must not call
// back into the Store.
func (st *Store) Replay(afterGen uint64, fn func(BatchRecord) error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	paths := make([]string, 0, len(st.sealed)+1)
	for _, s := range st.sealed {
		paths = append(paths, s.path)
	}
	paths = append(paths, st.cur.path)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		br := bufio.NewReaderSize(f, 1<<16)
		for {
			payload, ferr := readFrame(br)
			if ferr == io.EOF {
				break
			}
			if ferr != nil {
				// Open already repaired torn tails; anything here is real.
				f.Close()
				return fmt.Errorf("%w: segment %s failed re-read", ErrCorrupt, path)
			}
			rec, derr := decodeRecord(payload)
			if derr != nil {
				f.Close()
				return fmt.Errorf("%w: %v", ErrCorrupt, derr)
			}
			if rec.Gen <= afterGen {
				continue
			}
			if err := fn(rec); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// WriteCheckpoint atomically persists ck (temp file + fsync + rename), then
// prunes: older checkpoint files are removed, the active segment is sealed,
// and every sealed segment fully covered by the checkpoint is deleted.
// Record appends may interleave with a checkpoint in either order — replay
// filters by generation, so a record at or below the checkpoint generation
// is skipped wherever it lives.
func (st *Store) WriteCheckpoint(ck Checkpoint) error {
	start := time.Now()
	defer st.opts.CheckpointDur.ObserveSince(start)
	data, err := marshalCheckpoint(ck)
	if err != nil {
		return err
	}
	// The state-sized write and its fsync run outside st.mu so concurrent
	// Appends — and with them every write acknowledgement — never stall on
	// checkpoint I/O. Only the cheap rename, bookkeeping, and pruning
	// happen under the lock.
	final := checkpointPath(st.dir, ck.Gen)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		os.Remove(tmp)
		return ErrClosed
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(st.dir)

	prevCkGen, hadCk := st.ckGen, st.hasCk
	if !st.hasCk || ck.Gen > st.ckGen {
		st.ckGen, st.hasCk = ck.Gen, true
	}
	// Remove the superseded checkpoint (only after the new one is durable).
	if hadCk && prevCkGen != ck.Gen {
		os.Remove(checkpointPath(st.dir, prevCkGen))
	}
	switch {
	case st.damaged && st.cur.maxGen <= ck.Gen:
		// Every record the quarantined segment holds is covered by this
		// checkpoint (Append has refused since the damage), so the segment
		// — torn bytes and all — can be dropped wholesale and appending
		// resumes in a fresh one.
		st.active.Close()
		os.Remove(st.cur.path)
		if st.cur.maxGen > st.prunedGen {
			st.prunedGen = st.cur.maxGen
		}
		if err := st.openFreshSegmentLocked(st.cur.seq + 1); err != nil {
			return err
		}
		st.damaged, st.dirty = false, false
	case st.cur.records > 0:
		// Seal the active segment so covered history can be dropped.
		if err := st.sealActiveLocked(); err != nil {
			return err
		}
	}
	// Delete every sealed segment whose records all predate the checkpoint
	// AND sit below every live retention ref: a replication fetch or a
	// recovery replay in flight must never lose a file out from under it
	// (the pre-ref race: prune between LoadCheckpoint and Replay).
	floor := st.ckGen
	if f, ok := st.retainFloorLocked(); ok && f < floor {
		floor = f
	}
	kept := st.sealed[:0]
	for _, s := range st.sealed {
		if s.maxGen <= floor {
			os.Remove(s.path)
			if s.maxGen > st.prunedGen {
				st.prunedGen = s.maxGen
			}
			continue
		}
		kept = append(kept, s)
	}
	st.sealed = kept
	syncDir(st.dir)
	return nil
}

// LoadCheckpoint reads the newest checkpoint in the directory. It returns
// ErrNoCheckpoint if none exists and ErrCorrupt if the newest one fails its
// CRC (an older intact checkpoint, had it survived pruning, could not be
// paired with the already-truncated WAL, so no fallback is attempted).
func (st *Store) LoadCheckpoint() (Checkpoint, error) {
	for {
		st.mu.Lock()
		hasCk, gen := st.hasCk, st.ckGen
		st.mu.Unlock()
		if !hasCk {
			return Checkpoint{}, ErrNoCheckpoint
		}
		data, err := os.ReadFile(checkpointPath(st.dir, gen))
		if err != nil {
			// A concurrent checkpoint supersedes and removes the file we
			// targeted; retry against the newer one.
			if os.IsNotExist(err) {
				st.mu.Lock()
				moved := st.ckGen != gen
				st.mu.Unlock()
				if moved {
					continue
				}
			}
			return Checkpoint{}, err
		}
		return unmarshalCheckpoint(data)
	}
}

// Empty reports whether the directory holds no durable state at all —
// neither a checkpoint nor any WAL record.
func (st *Store) Empty() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.hasCk && st.lastGen == 0 && st.cur.records == 0 && len(st.sealed) == 0
}

// LastGen returns the highest generation recorded anywhere in the store.
func (st *Store) LastGen() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.hasCk && st.ckGen > st.lastGen {
		return st.ckGen
	}
	return st.lastGen
}

// CheckpointGen returns the latest checkpoint generation, if any.
func (st *Store) CheckpointGen() (uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ckGen, st.hasCk
}

// Dir returns the data directory path.
func (st *Store) Dir() string { return st.dir }

// Sync forces an fsync of the active segment regardless of policy.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	s0 := time.Now()
	err := st.active.Sync()
	st.opts.SyncDur.ObserveSince(s0)
	if err != nil {
		return err
	}
	st.dirty = false
	return nil
}

// Close fsyncs and closes the active segment. Further use returns ErrClosed.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	err := st.active.Sync()
	if cerr := st.active.Close(); err == nil {
		err = cerr
	}
	st.mu.Unlock()
	if st.flushQuit != nil {
		close(st.flushQuit)
		st.flushWG.Wait()
	}
	return err
}

// RestoreState is the recovery entry point below the service layer: load
// the newest checkpoint and fold the WAL tail back into a Sparsifier by
// replaying each record the way the engine applied it (BatchRecord.ApplyTo).
// It returns the rebuilt sparsifier and the generation it represents.
func (st *Store) RestoreState() (*core.Sparsifier, uint64, error) {
	// Pin the log at the current checkpoint generation for the whole
	// load-then-replay window: a checkpoint written in between must not
	// prune a segment the replay below is about to read.
	st.mu.Lock()
	var pin uint64
	if st.hasCk {
		pin = st.ckGen
	}
	ref := st.retainLocked(pin)
	st.mu.Unlock()
	defer ref.Release()

	ck, err := st.LoadCheckpoint()
	if err != nil {
		return nil, 0, err
	}
	sp, err := core.RestoreSparsifier(ck.State)
	if err != nil {
		return nil, 0, err
	}
	gen := ck.Gen
	err = st.Replay(ck.Gen, func(rec BatchRecord) error {
		if rec.Gen != gen+1 {
			return fmt.Errorf("%w: generation gap in WAL (have %d, next record %d)", ErrCorrupt, gen, rec.Gen)
		}
		if err := rec.ApplyTo(sp); err != nil {
			return err
		}
		gen = rec.Gen
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return sp, gen, nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and removals inside it are durable.
// Errors are ignored: not every filesystem supports directory fsync, and
// the worst case is the pre-rename state after a crash.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
