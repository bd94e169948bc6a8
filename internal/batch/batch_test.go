package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ingrass/internal/solver"
)

// recorder is a test Runner that records the groups it executes.
type recorder struct {
	mu      sync.Mutex
	groups  [][]*Req
	block   chan struct{} // if non-nil, each run waits on it
	started chan struct{} // if non-nil, each run signals it before blocking
}

func (rc *recorder) run(target string, reqs []*Req) {
	if rc.started != nil {
		rc.started <- struct{}{}
	}
	if rc.block != nil {
		<-rc.block
	}
	rc.mu.Lock()
	rc.groups = append(rc.groups, reqs)
	rc.mu.Unlock()
	for _, r := range reqs {
		r.Iterations = len(reqs) // marker: group width
	}
}

func (rc *recorder) widths() []int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]int, len(rc.groups))
	for i, g := range rc.groups {
		out[i] = len(g)
	}
	return out
}

func submitWait(t *testing.T, s *Scheduler[string], gen uint64, r *Req) {
	t.Helper()
	if r.Ctx == nil {
		r.Ctx = context.Background()
	}
	if err := s.Submit(r.Ctx, gen, "target", r); err != nil {
		t.Fatalf("Submit: %v", err)
	}
}

// busyScheduler starts a one-executor scheduler and parks its executor in a
// plug request (generation 0) until the returned release is called, so
// requests submitted meanwhile queue behind it deterministically.
func busyScheduler(t *testing.T, maxBlock int) (*Scheduler[string], *recorder, *Req, func()) {
	t.Helper()
	// Every run signals started, but only the plug's is read: the buffer
	// covers the groups a test runs after it.
	rc := &recorder{block: make(chan struct{}), started: make(chan struct{}, 64)}
	s := New(Options{MaxBlock: maxBlock, Workers: 1}, rc.run)
	plug := &Req{}
	submitWait(t, s, 0, plug)
	<-rc.started
	var once sync.Once
	release := func() { once.Do(func() { close(rc.block) }) }
	// Release before Close waits for the executor (cleanups run LIFO).
	t.Cleanup(s.Close)
	t.Cleanup(release)
	return s, rc, plug, release
}

func waitAll(t *testing.T, reqs ...*Req) {
	t.Helper()
	for _, r := range reqs {
		if err := r.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalescesWhileBusy: requests that queue against one generation while
// the executor is busy share one group, which runs once it frees.
func TestCoalescesWhileBusy(t *testing.T) {
	s, rc, plug, release := busyScheduler(t, 8)
	reqs := make([]*Req, 4)
	for i := range reqs {
		reqs[i] = &Req{}
		submitWait(t, s, 7, reqs[i])
	}
	release()
	waitAll(t, append(reqs, plug)...)
	for _, r := range reqs {
		if r.Iterations != 4 {
			t.Fatalf("request ran in width-%d group, want 4", r.Iterations)
		}
		if r.Gen() != 7 {
			t.Fatalf("request gen %d, want 7", r.Gen())
		}
	}
	if w := rc.widths(); len(w) != 2 || w[0] != 1 || w[1] != 4 {
		t.Fatalf("groups %v, want [1 4]", w)
	}
	v := s.Stats()
	if v.BatchesFormed != 2 || v.ColumnsTotal != 5 || v.RequestsCoalesced != 4 || v.QueueDepth != 0 {
		t.Fatalf("stats %+v", v)
	}
	if v.AvgBlockFill() != 2.5 {
		t.Fatalf("fill %v, want 2.5", v.AvgBlockFill())
	}
}

// TestSealsAtMaxBlock: the size bound seals a group while the executor is
// still busy; the next same-key request opens a new group.
func TestSealsAtMaxBlock(t *testing.T) {
	s, rc, plug, release := busyScheduler(t, 3)
	reqs := make([]*Req, 4)
	for i := range reqs {
		reqs[i] = &Req{}
		submitWait(t, s, 1, reqs[i])
	}
	release()
	waitAll(t, append(reqs, plug)...)
	if w := rc.widths(); len(w) != 3 || w[0] != 1 || w[1] != 3 || w[2] != 1 {
		t.Fatalf("groups %v, want [1 3 1]", w)
	}
}

// TestGenerationsNeverMix: requests queued together against different
// generations, or with different option sets, form distinct groups — the
// group-never-spans-generations invariant.
func TestGenerationsNeverMix(t *testing.T) {
	s, rc, plug, release := busyScheduler(t, 8)
	var reqs []*Req
	for i := 0; i < 6; i++ {
		r := &Req{}
		reqs = append(reqs, r)
		submitWait(t, s, uint64(1+i%2), r)
	}
	for i := 0; i < 2; i++ {
		r := &Req{Opts: solver.Options{Tol: 1e-3}}
		reqs = append(reqs, r)
		submitWait(t, s, 1, r)
	}
	release()
	waitAll(t, append(reqs, plug)...)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.groups) != 4 {
		t.Fatalf("%d groups, want 4 (plug, one per generation, one per option set)", len(rc.groups))
	}
	for _, g := range rc.groups[1:] {
		if len(g) < 2 {
			t.Fatalf("group of width %d, want every same-key request coalesced", len(g))
		}
		for _, r := range g {
			if r.Gen() != g[0].Gen() || r.Opts != g[0].Opts {
				t.Fatalf("group mixes keys (%d, %+v) and (%d, %+v)", g[0].Gen(), g[0].Opts, r.Gen(), r.Opts)
			}
		}
	}
}

// TestSubmitBatchSealsOwnGroups: an explicit batch queues exactly
// ceil(k/MaxBlock) sealed groups in order; singles queued around it never
// join them, and it never joins their open group.
func TestSubmitBatchSealsOwnGroups(t *testing.T) {
	s, rc, plug, release := busyScheduler(t, 4)
	before := &Req{}
	submitWait(t, s, 1, before)
	reqs := make([]*Req, 11)
	for i := range reqs {
		reqs[i] = &Req{Ctx: context.Background()}
	}
	if n, err := s.SubmitBatch(context.Background(), 1, "t", reqs); n != len(reqs) || err != nil {
		t.Fatalf("SubmitBatch admitted %d: %v", n, err)
	}
	after := &Req{}
	submitWait(t, s, 1, after)
	release()
	waitAll(t, append(append(reqs, plug, before), after)...)
	if w := rc.widths(); len(w) != 5 || w[0] != 1 || w[1] != 2 || w[2] != 4 || w[3] != 4 || w[4] != 3 {
		t.Fatalf("groups %v, want [1 2 4 4 3] (plug, singles, batch blocks)", w)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for i, g := range rc.groups[2:] {
		for j, r := range g {
			if r != reqs[4*i+j] || r.Gen() != 1 {
				t.Fatalf("group %d column %d is not batch request %d", i, j, 4*i+j)
			}
		}
	}
}

// TestSubmitBatchLargerThanQueueCap: batches needing more admission slots
// than the queue holds stream through group by group, also while several
// of them and a stream of singles compete for the slots.
func TestSubmitBatchLargerThanQueueCap(t *testing.T) {
	var ran atomic.Int64
	s := New(Options{MaxBlock: 3, QueueCap: 4, Workers: 2}, func(target string, reqs []*Req) {
		ran.Add(int64(len(reqs)))
	})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			reqs := make([]*Req, 10)
			for i := range reqs {
				reqs[i] = &Req{Ctx: context.Background()}
			}
			if n, err := s.SubmitBatch(context.Background(), 1, "t", reqs); n != len(reqs) || err != nil {
				t.Errorf("SubmitBatch admitted %d: %v", n, err)
				return
			}
			for _, r := range reqs {
				<-r.Done()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r := &Req{Ctx: context.Background()}
				if err := s.Submit(r.Ctx, 1, "t", r); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				<-r.Done()
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 80 {
		t.Fatalf("%d requests executed, want 80", got)
	}
	if d := s.Stats().QueueDepth; d != 0 {
		t.Fatalf("queue depth %d after drain", d)
	}
}

// TestSubmitBatchCancelledAdmission: a batch whose context expires while
// it waits for admission reports how many requests it queued; exactly
// those complete, and the rest never enter the queue.
func TestSubmitBatchCancelledAdmission(t *testing.T) {
	rc := &recorder{block: make(chan struct{}), started: make(chan struct{}, 8)}
	s := New(Options{MaxBlock: 2, QueueCap: 2, Workers: 1}, rc.run)
	defer s.Close()
	defer close(rc.block)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	reqs := make([]*Req, 8)
	for i := range reqs {
		reqs[i] = &Req{Ctx: ctx}
	}
	// The executor parks in the first group; the second fills the queue;
	// the third waits for admission until ctx expires.
	n, err := s.SubmitBatch(ctx, 1, "t", reqs)
	if !errors.Is(err, context.DeadlineExceeded) || n != 4 {
		t.Fatalf("SubmitBatch admitted %d: %v, want 4 and DeadlineExceeded", n, err)
	}
	for _, r := range reqs[n:] {
		if r.Done() != nil {
			t.Fatal("a request past the admitted prefix was queued")
		}
	}
	rc.block <- struct{}{}
	rc.block <- struct{}{}
	waitAll(t, reqs[:n]...)
}

// TestQueueBoundBlocksAndCancels: a full admission queue blocks Submit
// until the submitter's context expires.
func TestQueueBoundBlocksAndCancels(t *testing.T) {
	rc := &recorder{block: make(chan struct{})}
	s := New(Options{MaxBlock: 1, QueueCap: 1, Workers: 1}, rc.run)
	// Unblock the executor before Close waits for it (defers run LIFO).
	defer s.Close()
	defer close(rc.block)
	// First request occupies the single queue slot (its group may start
	// executing and park on rc.block, freeing the slot for the next
	// submission; the one after that must then block).
	first := &Req{Ctx: context.Background()}
	submitWait(t, s, 1, first)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	filled := false
	for !filled {
		r := &Req{Ctx: ctx}
		err := s.Submit(ctx, 1, "t", r)
		if errors.Is(err, context.DeadlineExceeded) {
			filled = true
		} else if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
}

// TestCloseFailsPending: Close fails requests queued behind a busy
// executor with ErrClosed, lets the running group finish, fails every
// request admitted while it races submitters exactly once, and rejects
// later submissions.
func TestCloseFailsPending(t *testing.T) {
	t.Run("queued behind busy executor", func(t *testing.T) {
		s, _, plug, release := busyScheduler(t, 8)
		pending := []*Req{{}, {Opts: solver.Options{Tol: 1e-3}}}
		for _, r := range pending {
			submitWait(t, s, 1, r)
		}
		done := make(chan struct{})
		go func() { s.Close(); close(done) }()
		for !s.closed.Load() {
			runtime.Gosched()
		}
		release()
		<-done
		waitAll(t, plug)
		if plug.Err != nil {
			t.Fatalf("running group failed: %v", plug.Err)
		}
		for _, r := range pending {
			if err := r.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(r.Err, ErrClosed) {
				t.Fatalf("pending request err %v, want ErrClosed", r.Err)
			}
		}
		if d := s.Stats().QueueDepth; d != 0 {
			t.Fatalf("queue depth %d after close", d)
		}
		if err := s.Submit(context.Background(), 1, "t", &Req{Ctx: context.Background()}); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close Submit: %v, want ErrClosed", err)
		}
	})
	t.Run("racing submitters", func(t *testing.T) {
		var ran atomic.Int64
		s := New(Options{MaxBlock: 4, Workers: 2}, func(target string, reqs []*Req) {
			ran.Add(int64(len(reqs)))
		})
		var admitted, failed atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					r := &Req{Ctx: context.Background()}
					if err := s.Submit(r.Ctx, uint64(i%3), "t", r); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Submit: %v", err)
						}
						return
					}
					admitted.Add(1)
					// A second close of done would panic: completion is
					// exactly once.
					<-r.Done()
					if r.Err != nil {
						if !errors.Is(r.Err, ErrClosed) {
							t.Errorf("request err %v", r.Err)
						}
						failed.Add(1)
					}
				}
			}(g)
		}
		close(start)
		for ran.Load() < 100 {
			runtime.Gosched()
		}
		s.Close()
		wg.Wait()
		if got := ran.Load() + failed.Load(); got != admitted.Load() {
			t.Fatalf("%d ran + %d failed, want %d admitted", ran.Load(), failed.Load(), admitted.Load())
		}
		if d := s.Stats().QueueDepth; d != 0 {
			t.Fatalf("queue depth %d after close", d)
		}
	})
}

// TestConcurrentSubmitters hammers Submit from many goroutines across
// generations; every request must complete exactly once with its own
// generation.
func TestConcurrentSubmitters(t *testing.T) {
	var ran atomic.Int64
	s := New(Options{MaxBlock: 4}, func(target string, reqs []*Req) {
		ran.Add(int64(len(reqs)))
	})
	defer s.Close()
	var wg sync.WaitGroup
	const goroutines, per = 8, 25
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := &Req{Ctx: context.Background()}
				if err := s.Submit(context.Background(), uint64(i%3), "t", r); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if err := r.Wait(context.Background()); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
				if r.Gen() != uint64(i%3) {
					t.Errorf("gen %d, want %d", r.Gen(), i%3)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ran.Load() != goroutines*per {
		t.Fatalf("%d requests executed, want %d", ran.Load(), goroutines*per)
	}
	if d := s.Stats().QueueDepth; d != 0 {
		t.Fatalf("queue depth %d after drain", d)
	}
}
