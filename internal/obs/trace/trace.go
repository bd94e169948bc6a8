// Package trace is a request-scoped span recorder built for the hot path:
// span buffers are pooled and fixed-capacity, span names and attribute keys
// come from closed vocabularies, timestamps are monotonic offsets from the
// trace epoch, and every per-span operation is a handful of atomic stores —
// no locks, no allocation, race-detector clean even when a batch executor
// finishes a span after the HTTP handler has returned.
//
// The lifecycle is tail-sampled: every request records spans while in
// flight (recording is cheap enough to be always-on), and the retention
// decision — error, tail latency, propagated hint, or probabilistic — is
// made once at Finish. Retained traces are snapshot-copied (the only
// allocation in the pipeline) into the flight recorder; the pooled buffer
// is recycled either way. A per-trace epoch counter neutralizes writes from
// stragglers holding Span handles into a recycled buffer.
package trace

import (
	"sync/atomic"
	"time"
)

// SpanName is the closed vocabulary of span names. The zero value is
// reserved as "invalid" so a snapshot can detect a claimed-but-unwritten
// slot (a racing StartChild that lost to Finish).
type SpanName uint8

const (
	spanInvalid SpanName = iota

	// SpanHTTPRequest is the server-side root span of one HTTP request.
	SpanHTTPRequest
	// SpanRouterClient covers one forward attempt from the router to a
	// backend (a retried read produces two).
	SpanRouterClient
	// SpanBatchGroup covers one request's ride through the coalescing
	// scheduler: queue wait from Submit to group execution, then the
	// blocked solve itself.
	SpanBatchGroup
	// SpanSolveOuter is the CG solve for one column.
	SpanSolveOuter
	// SpanSolveInner is one application of H's exact factor (a forward and
	// a backward sweep); the Jacobi regime records none.
	SpanSolveInner
	// SpanWALAppend covers encoding + writing one WAL batch record.
	SpanWALAppend
	// SpanWALFsync is the fsync portion of a WAL append (SyncAlways).
	SpanWALFsync

	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanInvalid:      "invalid",
	SpanHTTPRequest:  "http_request",
	SpanRouterClient: "router_client",
	SpanBatchGroup:   "batch_group",
	SpanSolveOuter:   "solve_outer",
	SpanSolveInner:   "solve_inner",
	SpanWALAppend:    "wal_append",
	SpanWALFsync:     "wal_fsync",
}

// String returns the wire name of s ("invalid" for out-of-vocabulary).
func (s SpanName) String() string {
	if s >= numSpanNames {
		return "invalid"
	}
	return spanNames[s]
}

// AttrKey is the closed vocabulary of span attribute keys. Values are
// non-negative integers packed next to the key in one atomic word.
type AttrKey uint8

const (
	attrInvalid AttrKey = iota
	// AttrIterations is the outer CG iteration count of a solve span.
	AttrIterations
	// AttrInnerUses counts preconditioner applications in a solve span.
	AttrInnerUses
	// AttrWidth is the coalesced block width of a batch-group span.
	AttrWidth
	// AttrQueueWaitNS is time from Submit to group execution start.
	AttrQueueWaitNS
	// AttrStatus is the HTTP status code of a request or client span.
	AttrStatus
	// AttrBackend is the router's backend index for a client span.
	AttrBackend
	// AttrGeneration is the graph generation a span observed.
	AttrGeneration
	// AttrBytes is the payload size of a WAL append span.
	AttrBytes

	numAttrKeys
)

var attrKeys = [numAttrKeys]string{
	attrInvalid:     "invalid",
	AttrIterations:  "iterations",
	AttrInnerUses:   "inner_uses",
	AttrWidth:       "width",
	AttrQueueWaitNS: "queue_wait_ns",
	AttrStatus:      "status",
	AttrBackend:     "backend",
	AttrGeneration:  "generation",
	AttrBytes:       "bytes",
}

// String returns the wire name of k.
func (k AttrKey) String() string {
	if k >= numAttrKeys {
		return "invalid"
	}
	return attrKeys[k]
}

// MaxSpans bounds one trace's span buffer. A warm solve records one outer
// span plus one inner span per preconditioner application (tens for a
// healthy basis); the cap absorbs an order of magnitude more before spans
// are counted as dropped rather than recorded.
const MaxSpans = 192

// maxAttrs is the per-span attribute slot count.
const maxAttrs = 4

// TraceID is a 128-bit trace identifier.
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether id is the zero (absent) ID.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// spanRecord is one span slot. Every field is atomic so a span may be
// started, annotated, and ended from a different goroutine than the one
// that snapshots or recycles the trace; the race detector sees only
// atomic operations.
//
// meta packs the span name in bits 0-7 and (parent index + 1) in bits
// 8-15; meta==0 marks a slot that was claimed but not yet written.
// start/end are nanosecond offsets from the trace's monotonic epoch;
// end==0 means "not yet ended". attrs pack an AttrKey in bits 56-63 and a
// non-negative value in bits 0-55.
type spanRecord struct {
	meta  atomic.Uint64
	start atomic.Int64
	end   atomic.Int64
	attrs [maxAttrs]atomic.Uint64
}

const attrValueMask = (uint64(1) << 56) - 1

// Trace is one pooled request trace: a fixed span buffer plus identity
// and epoch bookkeeping. It is created and recycled only by a Recorder.
type Trace struct {
	rec      *Recorder
	id       TraceID
	endpoint string
	// remoteParent is the span ID of the upstream caller's span when the
	// trace was continued from a traceparent header (0 when locally
	// rooted). The root span snapshots with this as its parent.
	remoteParent uint64
	// forced is the head decision: retain at Finish regardless of
	// latency/status, either because the upstream flagged the trace
	// (propagated) or the local head sample drew it.
	forced     bool
	propagated bool
	// spanSeed salts span-ID derivation per trace incarnation. Without it
	// span IDs would be a pure function of (trace ID, slot index), and the
	// router and a backend continuing the same trace would mint identical
	// IDs for the same slot — colliding across processes.
	spanSeed  uint64
	startWall int64     // UnixNano at StartRequest, for cross-process ordering
	start     time.Time // monotonic epoch

	epoch   atomic.Uint32 // incremented on recycle; stale Span handles no-op
	n       atomic.Int32  // claimed span slots
	dropped atomic.Uint32 // spans lost to buffer overflow
	spans   [MaxSpans]spanRecord
}

// Span is a lightweight handle into a trace's span buffer. The zero Span
// is valid and inert: every method is a no-op, so call sites need no nil
// checks and the untraced path stays branch-plus-return cheap.
type Span struct {
	t     *Trace
	idx   int32
	epoch uint32
}

// Tracing reports whether the span is live (attached to a trace).
func (s Span) Tracing() bool { return s.t != nil }

// live reports whether the handle still addresses the trace incarnation
// it was created for.
func (s Span) live() bool {
	return s.t != nil && s.t.epoch.Load() == s.epoch
}

// splitmix64 is the SplitMix64 finalizer; used to derive span IDs and
// trace IDs from counters without allocation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// spanID derives the wire ID of span idx arithmetically from the trace ID
// and the per-incarnation seed so no per-span ID needs storing. Index 0
// (the root) is included.
func (t *Trace) spanID(idx int32) uint64 {
	id := splitmix64(t.id.Lo ^ t.spanSeed ^ (uint64(idx)+1)*0x2545f4914f6cdd1d)
	if id == 0 {
		id = 1
	}
	return id
}

// startSpan claims a slot and initializes it. parentIdx < 0 means "no
// parent" (the root). Returns the zero Span on overflow.
func (t *Trace) startSpan(name SpanName, parentIdx int32, startOffset int64) Span {
	idx := t.n.Add(1) - 1
	if idx >= MaxSpans {
		t.n.Add(-1) // undo so the counter can't creep toward overflow
		t.dropped.Add(1)
		return Span{}
	}
	rec := &t.spans[idx]
	rec.start.Store(startOffset)
	rec.end.Store(0)
	for i := range rec.attrs {
		rec.attrs[i].Store(0)
	}
	// meta is written last: a snapshot that observes meta==0 skips the
	// half-initialized slot.
	rec.meta.Store(uint64(name) | uint64(parentIdx+1)<<8)
	return Span{t: t, idx: idx, epoch: t.epoch.Load()}
}

// offsetSince converts an absolute time to a nanosecond offset from the
// trace epoch (clamped non-negative so a backdated start before the trace
// began cannot produce a negative offset).
func (t *Trace) offsetSince(at time.Time) int64 {
	d := at.Sub(t.start)
	if d < 0 {
		d = 0
	}
	return int64(d)
}

// StartChild starts a child span of s starting now.
func (s Span) StartChild(name SpanName) Span {
	if !s.live() {
		return Span{}
	}
	return s.t.startSpan(name, s.idx, int64(time.Since(s.t.start)))
}

// StartChildSince starts a child span backdated to start. Used for spans
// whose beginning predates the code that records them (queue wait measured
// from Submit time, an append measured from before the syscall).
func (s Span) StartChildSince(name SpanName, start time.Time) Span {
	if !s.live() {
		return Span{}
	}
	return s.t.startSpan(name, s.idx, s.t.offsetSince(start))
}

// End marks the span as ended now.
func (s Span) End() {
	if !s.live() {
		return
	}
	end := int64(time.Since(s.t.start))
	if end == 0 {
		end = 1 // end==0 means "unfinished"; a 0ns span rounds up
	}
	s.t.spans[s.idx].end.Store(end)
}

// EndAt marks the span as ended at t (aligning, say, a fsync span's end
// with the measured sync duration).
func (s Span) EndAt(at time.Time) {
	if !s.live() {
		return
	}
	end := s.t.offsetSince(at)
	if end == 0 {
		end = 1
	}
	s.t.spans[s.idx].end.Store(end)
}

// SetAttr records key=val on the span. Values are clamped to [0, 2^56);
// at most maxAttrs distinct keys stick (later keys are dropped). Setting
// the same key twice overwrites.
func (s Span) SetAttr(key AttrKey, val int64) {
	if !s.live() || key == attrInvalid || key >= numAttrKeys {
		return
	}
	if val < 0 {
		val = 0
	}
	packed := uint64(key)<<56 | (uint64(val) & attrValueMask)
	rec := &s.t.spans[s.idx]
	for i := range rec.attrs {
		cur := rec.attrs[i].Load()
		if cur == 0 {
			if rec.attrs[i].CompareAndSwap(0, packed) {
				return
			}
			cur = rec.attrs[i].Load()
		}
		if AttrKey(cur>>56) == key {
			rec.attrs[i].Store(packed)
			return
		}
	}
}

// TraceID returns the ID of the span's trace (zero for an inert span).
func (s Span) TraceID() TraceID {
	if s.t == nil {
		return TraceID{}
	}
	return s.t.id
}

// ID returns the span's wire ID (0 for an inert span).
func (s Span) ID() uint64 {
	if !s.live() {
		return 0
	}
	return s.t.spanID(s.idx)
}

// Forced reports whether the trace carries the head-sample/propagation
// retention hint (and should propagate it downstream).
func (s Span) Forced() bool {
	return s.t != nil && s.t.forced
}
