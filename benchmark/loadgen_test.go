package main

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	pattern := []opKind{opSolve, opResist, opWrite}
	draw := func(seed uint64) []op {
		return schedule(seed, 50, time.Second, 4*time.Second, pattern, 100, 8, 1.2)
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	if len(a) != 250 {
		t.Errorf("%d ops at 50/s over 5 s, want 250", len(a))
	}
	for i, o := range a {
		if o.kind != pattern[i%len(pattern)] || o.due != time.Duration(i)*20*time.Millisecond {
			t.Fatalf("op %d is a %s due at %v", i, o.kind, o.due)
		}
		if o.warm != (o.due < time.Second) {
			t.Fatalf("op %d due at %v has warm=%v", i, o.due, o.warm)
		}
		if o.kind == opResist && (o.u == o.v || o.u < 0 || o.u >= 100 || o.v < 0 || o.v >= 100) {
			t.Fatalf("bad resistance pair (%d, %d)", o.u, o.v)
		}
		if o.kind == opSolve && (o.rhs < 0 || o.rhs >= 8) {
			t.Fatalf("bad right-hand side %d", o.rhs)
		}
	}
}

// A stalled op holds a lock the next two need. Their latency must count
// the stall from their due times, as a user arriving then would see it.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	ops := []op{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	const stall = 80 * time.Millisecond
	var mu sync.Mutex
	out, _ := openLoop(context.Background(), ops, 8, func(_ context.Context, i int) error {
		mu.Lock()
		defer mu.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, o := range out {
		if o.shed || o.err != nil {
			t.Fatalf("op %d: shed %v err %v", i, o.shed, o.err)
		}
		if want := stall - ops[i].due; o.latency(ops[i].due) < want {
			t.Errorf("op %d latency %v, want at least %v", i, o.latency(ops[i].due), want)
		}
		// A generator blocked by the stall would send ops 1 and 2 at least
		// 60 ms late; the margin below that absorbs a busy shared host.
		if o.late(ops[i].due) > stall/4 {
			t.Errorf("op %d sent %v late", i, o.late(ops[i].due))
		}
	}
}

func TestOpenLoopShedsAtInflightCap(t *testing.T) {
	ops := []op{{due: 0}, {due: 5 * time.Millisecond}, {due: 10 * time.Millisecond}, {due: 15 * time.Millisecond}}
	release := make(chan struct{})
	var calls atomic.Int32
	go func() {
		// Far past the last due time, so a generator slowed by a busy
		// host still meets the cap on every op.
		time.Sleep(250 * time.Millisecond)
		close(release)
	}()
	out, peak := openLoop(context.Background(), ops, 1, func(context.Context, int) error {
		calls.Add(1)
		<-release
		return nil
	})
	shed := 0
	for _, o := range out {
		if o.shed {
			shed++
		}
	}
	if shed != 3 || calls.Load() != 1 || peak != 1 {
		t.Errorf("shed %d, executed %d, peak %d; want 3, 1, 1", shed, calls.Load(), peak)
	}
}
