package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"
)

type opKind uint8

const (
	opSolve opKind = iota
	opResist
	opWrite
)

func (k opKind) String() string {
	return [...]string{"solve", "resist", "write"}[k]
}

// op is one scheduled request. Operands are fixed when the schedule is
// drawn, so a seed names the exact request sequence.
type op struct {
	due  time.Duration // offset from the start of the load
	kind opKind
	rhs  int // solve: index into the fixed right-hand-side set
	u, v int // resist: the queried pair; write: the new edge
	w    float64
	warm bool // warm-up request: executed, not recorded
}

// schedule draws an open-loop schedule over warmup+window at a constant
// rate: request i is due at i/rate and has kind pattern[i%len(pattern)].
// The seed draws the operands: solve right-hand sides uniform over
// rhsCount and resistance pairs zipf-skewed (exponent zipf) over n nodes,
// so a few hot nodes take most queries. Write operands are left for the
// caller to fill from an edge stream.
//
// Arrivals are evenly spaced rather than Poisson: Poisson clusters made
// solves overlap, overlapping solves serialize on the shared kernel pool,
// and on a 2-vCPU machine that moved read p50 by 9% and p90 by 22-72%
// between seeds, more than any bound worth having.
func schedule(seed uint64, rate float64, warmup, window time.Duration, pattern []opKind, n, rhsCount int, zipf float64) []op {
	rng := rand.New(rand.NewSource(int64(seed)))
	z := rand.NewZipf(rng, zipf, 1, uint64(n-1))
	ops := make([]op, int((warmup+window).Seconds()*rate))
	for i := range ops {
		due := time.Duration(math.Round(float64(i) * float64(time.Second) / rate))
		o := op{due: due, kind: pattern[i%len(pattern)], warm: due < warmup}
		switch o.kind {
		case opSolve:
			o.rhs = rng.Intn(rhsCount)
		case opResist:
			o.u = int(z.Uint64())
			o.v = (o.u + 1 + rng.Intn(n-1)) % n // never equal to u
		}
		ops[i] = o
	}
	return ops
}

// outcome is what the open loop observed for one op. Latency runs from
// the op's due time, not from when it was sent, so a stall that delays
// later requests is charged to them (no coordinated omission).
type outcome struct {
	sent, done time.Duration // offsets from the start of the load
	shed       bool
	err        error
}

func (o outcome) latency(due time.Duration) time.Duration { return o.done - due }
func (o outcome) late(due time.Duration) time.Duration    { return o.sent - due }

// openLoop runs ops from a single generator goroutine, each at its due
// time and regardless of how earlier ones fare. At most maxInflight run at
// once; an op due while the cap is reached is shed and never sent. exec
// receives the op's index. openLoop returns once every sent op has
// finished, with one outcome per op and the highest number in flight.
func openLoop(ctx context.Context, ops []op, maxInflight int, exec func(context.Context, int) error) ([]outcome, int) {
	out := make([]outcome, len(ops))
	slots := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	peak := 0
	start := time.Now()
	for i := range ops {
		if d := ops[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		select {
		case slots <- struct{}{}:
		default:
			now := time.Since(start)
			out[i] = outcome{sent: now, done: now, shed: true}
			continue
		}
		peak = max(peak, len(slots))
		out[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			err := exec(ctx, i)
			out[i].done = time.Since(start)
			out[i].err = err
		}(i)
	}
	wg.Wait()
	return out, peak
}
