package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ingrass/internal/core"
	"ingrass/internal/graph"
	"ingrass/internal/obs/trace"
	"ingrass/internal/wal"
)

// ErrClosed is returned for writes and scheduled reads issued after Close.
var ErrClosed = errors.New("service: engine closed")

// errEmptyBatch rejects write requests that carry no edges.
var errEmptyBatch = errors.New("service: empty edge batch")

type opKind int

const (
	opAdd opKind = iota
	opDelete
	opBarrier
	// opMaintain carries a finished setup basis from a background rebuild;
	// the batcher flushes the pending batch and adopts it (maintenance.go),
	// so generation assignment and WAL appends stay single-writer-ordered.
	opMaintain
)

// WriteResult reports one completed write request.
type WriteResult struct {
	// Generation is the snapshot generation in which the write became
	// visible to readers.
	Generation uint64
	// Add-path counters (per the inGRASS filter).
	Included, Merged, Redistributed int
	// Delete-path counters.
	Deleted, Promoted int
}

// Pending is the future completed when a write request's batch flushes.
type Pending struct {
	done chan struct{}
	res  WriteResult
	err  error
}

func newPending() *Pending { return &Pending{done: make(chan struct{})} }

// Done is closed once the request has been applied (or rejected).
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the request completes or ctx is cancelled.
func (p *Pending) Wait(ctx context.Context) (WriteResult, error) {
	select {
	case <-p.done:
		return p.res, p.err
	case <-ctx.Done():
		return WriteResult{}, ctx.Err()
	}
}

// Result returns the outcome; it must only be called after Done is closed.
func (p *Pending) Result() (WriteResult, error) { return p.res, p.err }

func (p *Pending) complete(res WriteResult, err error) {
	p.res, p.err = res, err
	close(p.done)
}

type request struct {
	kind  opKind
	edges []graph.Edge
	basis *core.SetupBasis // opMaintain only
	p     *Pending
	// span is the submitting request's trace span (inert when untraced);
	// the flush hangs WAL append/fsync spans under it.
	span trace.Span
}

// run is the single writer goroutine. It coalesces by group commit: it
// blocks for one request, takes every request that queued meanwhile
// (typically while the previous flush ran), and flushes them as one batch,
// flushing early at MaxBatch edges, at a barrier, or before a maintenance
// swap. Each batch is applied under the write lock (all insertions through
// one core.UpdateBatch pass; deletions per request, for exact error
// isolation), published as a fresh snapshot, and its futures completed.
func (e *Engine) run() {
	defer e.wg.Done()
	var (
		batch      []*request
		batchEdges int
	)
	flush := func() {
		if len(batch) > 0 {
			e.flush(batch)
			batch, batchEdges = nil, 0
		}
	}
	accept := func(r *request) {
		if r.kind == opMaintain {
			// The swap is ordered after everything already accepted: flush
			// the pending batch first, then adopt.
			flush()
			e.applyMaintenance(r)
			return
		}
		batch = append(batch, r)
		batchEdges += len(r.edges)
		if r.kind == opBarrier || batchEdges >= e.opts.MaxBatch {
			flush()
		}
	}
	for {
		select {
		case r := <-e.reqs:
			accept(r)
			for len(e.reqs) > 0 {
				accept(<-e.reqs)
			}
			flush()
		case <-e.quit:
			// Graceful shutdown: drain whatever is already enqueued and
			// flush it, so accepted writes are never silently dropped.
			for {
				select {
				case r := <-e.reqs:
					if r.kind == opMaintain {
						// Best-effort by design: the engine is going away, so
						// the rebuilt basis is simply dropped.
						r.p.complete(WriteResult{}, ErrClosed)
						continue
					}
					batch = append(batch, r)
				default:
					flush()
					return
				}
			}
		}
	}
}

// flush applies one coalesced batch and publishes the resulting snapshot.
func (e *Engine) flush(batch []*request) {
	var adds, dels []graph.Edge
	n := e.nodeCount()
	for _, r := range batch {
		switch r.kind {
		case opAdd:
			// Static validation up front so one malformed request fails
			// alone instead of poisoning the coalesced UpdateBatch.
			if err := validateAdds(r.edges, n); err != nil {
				r.p.complete(WriteResult{}, err)
				e.stats.writeErrors.Add(1)
				e.stats.queueDepth.Add(-1)
				r.kind, r.p = opBarrier, nil // consumed; skip during application
				continue
			}
			adds = append(adds, r.edges...)
		case opDelete:
			dels = append(dels, r.edges...)
		}
	}

	e.mu.Lock()
	var (
		actions []core.Action // by position in adds
		addErr  error
	)
	if len(adds) > 0 {
		decs, err := e.sp.UpdateBatch(adds)
		if err != nil {
			// Should be unreachable given the static validation above, but
			// fail the whole add phase rather than guessing.
			addErr = err
		} else {
			actions = make([]core.Action, len(adds))
			for _, d := range decs {
				actions[d.Pos] = d.Action
			}
		}
	}

	// Delete requests apply per request: deletion validation depends on the
	// evolving state (an edge deleted by an earlier request in the same
	// flush must fail the later duplicate), and per-request application
	// gives exact error isolation at delete-stream rates.
	type delOutcome struct {
		res WriteResult
		err error
	}
	delResults := make(map[*request]delOutcome)
	for _, r := range batch {
		if r.kind != opDelete {
			continue
		}
		out := delOutcome{}
		results, err := e.sp.DeleteEdges(r.edges)
		if err != nil {
			out.err = err
		} else {
			out.res.Deleted = len(results)
			for _, dr := range results {
				if dr.Replacement >= 0 {
					out.res.Promoted++
				}
			}
		}
		delResults[r] = out
	}

	mutated := len(adds) > 0 && addErr == nil
	// Applied deletion batches in application order — exactly what WAL
	// replay must re-run after the coalesced adds.
	var appliedDels [][]graph.Edge
	for _, r := range batch {
		if r.kind != opDelete {
			continue
		}
		if out := delResults[r]; out.err == nil {
			mutated = true
			appliedDels = append(appliedDels, r.edges)
		}
	}

	// Generation bump and COW snapshots happen under the same critical
	// section as the application itself, so a concurrent Checkpoint always
	// captures (state, generation) pairs consistently. Publication is
	// deferred until after the WAL append: readers and futures must not
	// observe a generation whose record might not survive a crash.
	var snap *Snapshot
	var walRec *wal.BatchRecord
	if mutated {
		gen := e.stats.generation.Add(1)
		snap = e.snapshotLocked(gen)
		if e.opts.Store != nil && !e.walBroken.Load() {
			walRec = &wal.BatchRecord{Gen: gen, DelBatches: appliedDels}
			if addErr == nil && len(adds) > 0 {
				walRec.Adds = adds
			}
		}
	} else {
		snap = e.reg.Current()
	}
	e.mu.Unlock()

	// WAL-before-publish: log the applied batch, then make it visible.
	var walErr error
	if walRec != nil {
		appendStart := time.Now()
		n, syncDur, err := e.opts.Store.AppendTimed(*walRec)
		appendEnd := time.Now()
		// One append durably covers every coalesced request: each traced
		// request gets the append (and its fsync share) in its own trace.
		for _, r := range batch {
			if !r.span.Tracing() {
				continue
			}
			as := r.span.StartChildSince(trace.SpanWALAppend, appendStart)
			as.SetAttr(trace.AttrBytes, int64(n))
			as.SetAttr(trace.AttrGeneration, int64(walRec.Gen))
			if syncDur > 0 {
				fs := as.StartChildSince(trace.SpanWALFsync, appendEnd.Add(-syncDur))
				fs.EndAt(appendEnd)
			}
			as.EndAt(appendEnd)
		}
		if err != nil {
			// Sticky: a gapped log must not grow (replay would be wrong).
			// The next successful Checkpoint covers the gap and re-arms.
			e.walBroken.Store(true)
			e.stats.walErrors.Add(1)
			walErr = fmt.Errorf("%w: %v", ErrNotDurable, err)
		} else {
			e.stats.walAppends.Add(1)
			e.stats.walBytes.Add(uint64(n))
		}
	} else if mutated && e.opts.Store != nil {
		// Degraded mode: the write is applied but goes unlogged.
		walErr = ErrNotDurable
	}
	if mutated {
		e.reg.Publish(snap)
	}
	// Count the flush before completing its futures, so a writer woken by
	// its future already sees the flush in Stats.
	e.stats.flushes.Add(1)

	// Complete futures outside the write lock. Each valid add request owns
	// the next contiguous range of adds.
	next := 0
	for _, r := range batch {
		switch r.kind {
		case opAdd:
			if addErr != nil {
				e.stats.writeErrors.Add(1)
				r.p.complete(WriteResult{}, addErr)
			} else {
				res := WriteResult{Generation: snap.Gen}
				for _, a := range actions[next : next+len(r.edges)] {
					switch a {
					case core.Included:
						res.Included++
					case core.Merged:
						res.Merged++
					case core.Redistributed:
						res.Redistributed++
					}
				}
				next += len(r.edges)
				e.stats.flushedAdds.Add(uint64(len(r.edges)))
				r.p.complete(res, walErr)
			}
			e.stats.queueDepth.Add(-1)
		case opDelete:
			out := delResults[r]
			out.res.Generation = snap.Gen
			if out.err != nil {
				e.stats.writeErrors.Add(1)
				r.p.complete(WriteResult{}, out.err)
			} else {
				e.stats.flushedDeletes.Add(uint64(len(r.edges)))
				r.p.complete(out.res, walErr)
			}
			e.stats.queueDepth.Add(-1)
		case opBarrier:
			if r.p != nil {
				r.p.complete(WriteResult{Generation: snap.Gen}, nil)
				e.stats.queueDepth.Add(-1)
			}
		}
	}
}

func validateAdds(edges []graph.Edge, n int) error {
	if len(edges) == 0 {
		return errEmptyBatch
	}
	for _, e := range edges {
		if err := core.CheckEdge(e, n); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	return nil
}
