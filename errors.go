package ingrass

import (
	"errors"

	"ingrass/internal/core"
	"ingrass/internal/repl"
	"ingrass/internal/service"
	"ingrass/internal/solver"
	"ingrass/internal/wal"
)

// Typed errors crossing every layer of the solver stack. Match them with
// errors.Is; they survive wrapping through the internal packages.
var (
	// ErrNoConvergence reports that an iterative solve exhausted its
	// iteration budget before reaching the requested tolerance. The partial
	// solution is still returned alongside it.
	ErrNoConvergence = solver.ErrNoConvergence
	// ErrCancelled reports a solve aborted by context cancellation or
	// deadline expiry. The error chain also matches the specific context
	// error (context.Canceled or context.DeadlineExceeded).
	ErrCancelled = solver.ErrCancelled
)

// ErrInvalidEdge reports an insertion batch rejected before any mutation
// because one of its edges has an endpoint out of range, is a self-loop, or
// has a weight that is not positive and finite (0, a negative value, NaN or
// ±Inf). Incremental.AddEdges and Service.AddEdges (and AddEdgesAsync)
// return it; nothing of the batch reaches the graph or the write-ahead log.
var ErrInvalidEdge = core.ErrInvalidEdge

// ErrClosed reports a write or a scheduled read (Solve, EffectiveResistance,
// SolveBatch, EffectiveResistanceBatch) issued after Service.Close.
var ErrClosed = service.ErrClosed

// Typed errors of the durability subsystem.
var (
	// ErrNotDurable accompanies an otherwise-successful write whose
	// write-ahead-log append failed: the write IS applied and visible to
	// readers (the WriteResult alongside is valid), but it would not
	// survive a crash. The condition is sticky — later writes return it
	// too — until a successful Checkpoint captures the full state and
	// restores durability.
	ErrNotDurable = service.ErrNotDurable
	// ErrNoCheckpoint reports a LoadService against a data directory that
	// holds no checkpoint (e.g. one never initialized by NewService).
	ErrNoCheckpoint = wal.ErrNoCheckpoint
	// ErrCorruptData reports unrecoverable damage in the data directory:
	// a failed CRC anywhere other than the torn tail of the final WAL
	// segment (which is repaired silently, since the write it carried was
	// never acknowledged).
	ErrCorruptData = wal.ErrCorrupt
	// ErrDataDirNotEmpty reports a NewService whose DataDir already holds
	// durable state; resume it with LoadService (or point NewService at a
	// fresh directory).
	ErrDataDirNotEmpty = errors.New("ingrass: data directory already holds state; use LoadService")
)

// Typed errors of the maintenance subsystem.
var (
	// ErrRebuildInProgress reports a ForceResparsify while another background
	// re-sparsification (manual or controller-triggered) is already running;
	// at most one basis rebuild is in flight per service.
	ErrRebuildInProgress = service.ErrRebuildInProgress
)

// Typed errors of the replication tier.
var (
	// ErrReadOnlyReplica reports a write (AddEdges, DeleteEdges,
	// ForceResparsify) against a follower Service; writes go to the
	// primary. Served over HTTP as 403.
	ErrReadOnlyReplica = service.ErrReadOnly
	// ErrReplicaStale reports a read against a follower that has been out
	// of contact with its primary longer than FollowOptions.MaxStaleness.
	// The condition is sticky while the partition lasts and heals
	// automatically on reconnect. Served over HTTP as 503.
	ErrReplicaStale = repl.ErrReplicaStale
)
