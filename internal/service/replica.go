package service

import (
	"errors"
	"fmt"
	"math"

	"ingrass/internal/core"
	"ingrass/internal/wal"
)

// Replica engines are the follower side of the replication tier
// (internal/repl): a read-only Engine whose state advances exclusively by
// replaying the primary's WAL records through the exact code path recovery
// uses — so a follower at generation G is bit-identical to the primary at
// generation G, the invariant TestRestoreReplaysIdentically already proves
// for restarts. Every read path (snapshots, solves, the batched query
// scheduler) works unchanged; every write path returns ErrReadOnly.

// Replica errors.
var (
	// ErrReadOnly reports a mutation on a read-only replica engine; writes
	// go to the primary.
	ErrReadOnly = errors.New("service: read-only replica; writes go to the primary")
	// ErrGenerationGap reports an ApplyRecord whose generation does not
	// directly follow the replica's: applying it would silently diverge
	// from the primary. The follower must re-fetch (or re-bootstrap from a
	// checkpoint) instead.
	ErrGenerationGap = errors.New("service: replication record out of sequence")
)

// NewReplica builds a read-only engine from a primary checkpoint image.
// The replica starts serving at the checkpoint generation immediately;
// catch-up happens record by record through ApplyRecord.
func NewReplica(ck wal.Checkpoint, opts Options) (*Engine, error) {
	sp, err := core.RestoreSparsifier(ck.State)
	if err != nil {
		return nil, err
	}
	opts.ReadOnly = true
	opts.Store = nil
	opts.InitialGeneration = ck.Gen
	return New(sp, opts), nil
}

// ApplyRecord replays one primary WAL record against the replica and
// publishes the resulting generation. Records must arrive in exact
// generation order: a gap returns ErrGenerationGap and applies nothing
// (the divergence guard — a missed record would make every later
// generation silently wrong). A record at or below the current generation
// is a harmless duplicate and is skipped.
func (e *Engine) ApplyRecord(rec wal.BatchRecord) error {
	if !e.opts.ReadOnly {
		return errors.New("service: ApplyRecord on a writable engine")
	}
	if e.closed.Load() {
		return ErrClosed
	}
	e.mu.Lock()
	gen := e.stats.generation.Load()
	if rec.Gen <= gen {
		e.mu.Unlock()
		return nil
	}
	if rec.Gen != gen+1 {
		e.mu.Unlock()
		return fmt.Errorf("%w: replica at %d, record %d", ErrGenerationGap, gen, rec.Gen)
	}
	if err := rec.ApplyTo(e.sp); err != nil {
		e.mu.Unlock()
		return fmt.Errorf("service: apply: %w", err)
	}
	if rec.Maint != nil {
		e.stats.maintRebuilds.Add(1)
		e.stats.maintLastGen.Store(rec.Gen)
		e.stats.maintTargetCond.Store(math.Float64bits(rec.Maint.TargetCond))
	} else {
		e.stats.flushedAdds.Add(uint64(len(rec.Adds)))
		for _, batch := range rec.DelBatches {
			e.stats.flushedDeletes.Add(uint64(len(batch)))
		}
	}
	e.stats.flushes.Add(1)
	e.stats.generation.Store(rec.Gen)
	snap := e.snapshotLocked(rec.Gen)
	e.mu.Unlock()
	e.reg.Publish(snap)
	return nil
}

// ResetReplica rebases the replica onto a newer checkpoint image — the
// re-bootstrap path after the primary pruned past the replica's position.
// The engine object (and with it the metrics bridges and query scheduler)
// stays; only the sparsifier state and generation are replaced. A
// checkpoint at or below the current generation is refused: generations
// published to readers must stay monotonic.
func (e *Engine) ResetReplica(ck wal.Checkpoint) error {
	if !e.opts.ReadOnly {
		return errors.New("service: ResetReplica on a writable engine")
	}
	if e.closed.Load() {
		return ErrClosed
	}
	sp, err := core.RestoreSparsifier(ck.State)
	if err != nil {
		return err
	}
	e.mu.Lock()
	if ck.Gen <= e.stats.generation.Load() {
		e.mu.Unlock()
		return fmt.Errorf("%w: re-bootstrap checkpoint %d behind replica %d",
			ErrGenerationGap, ck.Gen, e.stats.generation.Load())
	}
	e.sp = sp
	e.counted = decisionCounts(sp.Stats()) // the image's decisions were counted by the primary
	e.stats.generation.Store(ck.Gen)
	snap := e.snapshotLocked(ck.Gen)
	e.mu.Unlock()
	e.reg.Publish(snap)
	return nil
}
