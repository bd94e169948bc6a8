package solver

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestWithDefaultsDerived(t *testing.T) {
	o := Options{}.WithDefaults(100)
	if o.Tol != 1e-8 {
		t.Fatalf("Tol default %g", o.Tol)
	}
	if o.MaxIter != 1000 {
		t.Fatalf("derived MaxIter %d, want 1000", o.MaxIter)
	}
	if got := (Options{}).WithDefaults(2).MaxIter; got != 50 {
		t.Fatalf("small-n floor %d, want 50", got)
	}
	if got := (Options{}).WithDefaults(1 << 20).MaxIter; got != 20000 {
		t.Fatalf("derived cap %d, want 20000", got)
	}
}

// Regression for the old sparse.CGOptions.withDefaults bug: an explicit
// caller-supplied MaxIter above 20000 must pass through verbatim — only the
// derived default is clamped.
func TestWithDefaultsExplicitMaxIterNotClamped(t *testing.T) {
	o := Options{MaxIter: 123456}.WithDefaults(1 << 20)
	if o.MaxIter != 123456 {
		t.Fatalf("explicit MaxIter clamped to %d", o.MaxIter)
	}
	o = Options{MaxIter: 3}.WithDefaults(100)
	if o.MaxIter != 3 {
		t.Fatalf("explicit small MaxIter overridden to %d", o.MaxIter)
	}
}

func TestOverride(t *testing.T) {
	base := Options{Tol: 1e-8, MaxIter: 100, Workers: 4, Format: FormatCSR}
	eff := base.Override(Options{Tol: 1e-4, Format: FormatSELL})
	if eff.Tol != 1e-4 || eff.MaxIter != 100 || eff.Workers != 4 || eff.Format != FormatSELL {
		t.Fatalf("override merge wrong: %+v", eff)
	}
	if eff = base.Override(Options{}); eff != base {
		t.Fatalf("zero request changed the defaults: %+v", eff)
	}
}

func TestCancelledWrapping(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Cancelled(ctx.Err())
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("errors.Is(err, ErrCancelled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

func TestWorkspaceFrames(t *testing.T) {
	ws := NewWorkspace(8)
	a := ws.Take()
	mark := ws.Mark()
	b := ws.Take()
	c := ws.Take()
	if len(a) != 8 || len(b) != 8 || len(c) != 8 {
		t.Fatal("wrong vector length")
	}
	b[0] = 42
	ws.Release(mark)
	// The next Take after a release reuses the released slot.
	d := ws.Take()
	if &d[0] != &b[0] {
		t.Fatal("released slot not reused")
	}
	if ws.Mark() != 2 {
		t.Fatalf("mark %d after release+take, want 2", ws.Mark())
	}
}

func TestWorkspaceReleasePanics(t *testing.T) {
	ws := NewWorkspace(4)
	ws.Take()
	defer func() {
		if recover() == nil {
			t.Fatal("Release past used did not panic")
		}
	}()
	ws.Release(5)
}

func TestPoolDimMismatchPanics(t *testing.T) {
	p := NewPool(4)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-pool Put did not panic")
		}
	}()
	p.Put(NewWorkspace(8))
}

// TestPoolHammer drives the workspace pool from many goroutines under the
// race detector: every checkout must be exclusively owned while held.
func TestPoolHammer(t *testing.T) {
	const n = 64
	p := NewPool(n)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				ws := p.Get()
				mark := ws.Mark()
				v1 := ws.Take()
				v2 := ws.Take()
				for i := range v1 {
					v1[i] = float64(id)
					v2[i] = float64(it)
				}
				for i := range v1 {
					if v1[i] != float64(id) || v2[i] != float64(it) {
						panic("workspace shared between goroutines")
					}
				}
				ws.Release(mark)
				p.Put(ws)
			}
		}(g)
	}
	wg.Wait()
}
