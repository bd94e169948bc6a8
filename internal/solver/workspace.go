package solver

import (
	"fmt"
	"sync"
)

// Workspace is a bump allocator over scratch vectors of one fixed length.
// Solver layers Take vectors as they need them and Release back to a Mark
// when their frame ends, so nested frames (a centered right-hand side, then
// the CG loop's residual and direction vectors) reuse the same backing
// slots on every solve instead of growing without bound.
//
// A Workspace is goroutine-confined: exactly one solve call tree may use it
// at a time. Check workspaces out of a Pool for concurrent use.
type Workspace struct {
	n    int
	vecs [][]float64
	used int
}

// NewWorkspace returns an empty workspace for vectors of length n. Backing
// storage is allocated lazily on first Take and retained for reuse.
func NewWorkspace(n int) *Workspace {
	return &Workspace{n: n}
}

// Dim returns the vector length this workspace serves.
func (w *Workspace) Dim() int { return w.n }

// Take returns the next scratch vector of length Dim. Contents are
// unspecified; callers must fully initialize before reading.
func (w *Workspace) Take() []float64 {
	if w.used == len(w.vecs) {
		w.vecs = append(w.vecs, make([]float64, w.n))
	}
	v := w.vecs[w.used]
	w.used++
	return v
}

// Mark records the current frame position for a later Release.
func (w *Workspace) Mark() int { return w.used }

// Release returns every vector taken since the given Mark. Released slices
// must no longer be referenced by the caller.
func (w *Workspace) Release(mark int) {
	if mark < 0 || mark > w.used {
		panic(fmt.Sprintf("solver: Release(%d) outside [0, %d]", mark, w.used))
	}
	w.used = mark
}

// Pool hands out Workspaces of one dimension. It is sync.Pool-backed, so
// checked-in workspaces are reused across solves (zero steady-state
// allocation on warm paths) but can be reclaimed by the garbage collector
// under memory pressure. Pools are safe for concurrent use; the Workspaces
// they return are not — one checkout, one goroutine.
type Pool struct {
	n int
	p sync.Pool
}

// NewPool returns a pool of workspaces for vectors of length n.
func NewPool(n int) *Pool {
	pl := &Pool{n: n}
	pl.p.New = func() any { return NewWorkspace(n) }
	return pl
}

// Dim returns the vector length this pool serves.
func (p *Pool) Dim() int { return p.n }

// Get checks a workspace out; pair with Put, typically via defer.
func (p *Pool) Get() *Workspace {
	return p.p.Get().(*Workspace)
}

// Put returns a workspace to the pool, releasing all frames. The caller
// must not use ws (or any slice taken from it) afterwards.
func (p *Pool) Put(ws *Workspace) {
	if ws == nil {
		return
	}
	if ws.n != p.n {
		panic(fmt.Sprintf("solver: workspace of dim %d returned to pool of dim %d", ws.n, p.n))
	}
	ws.used = 0
	p.p.Put(ws)
}
