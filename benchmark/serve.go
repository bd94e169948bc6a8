package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"ingrass"
	"ingrass/internal/core"
	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/obs/trace"
	"ingrass/internal/vecmath"
)

// serveSpec is an open-loop request stream against one ingrass.Service.
type serveSpec struct {
	graph   string
	scale   float64
	rate    float64       // offered requests per second
	warmup  time.Duration // executed before measuring, not recorded
	pattern []opKind      // request kinds, repeated in this order
	op      string        // class of request that is the workload's op
	// durable gives the service a fresh data directory; every write batch
	// is fsynced to its log before it is acknowledged.
	durable bool
	// residualEvery checks the true residual of every Nth solve; it needs
	// a fixed G, so only a workload without writes sets it.
	residualEvery int
	setups        int // services built to time set-up; the last one serves
}

const (
	rhsCount    = 64   // fixed right-hand sides solves draw from
	zipfS       = 1.2  // skew of resistance-query endpoints
	maxInflight = 64   // open-loop cap; requests beyond it are shed
	solveTol    = 1e-8 // the service's default outer tolerance
	opTimeout   = 10 * time.Second
	// solveWorkers is the kernel parallelism of the services' solves. On 2
	// shared vCPUs a pooled solve on this 1,600-node mesh waits, at every
	// fork-join, on the other vCPU, which neighbours take at times: a read's
	// p10 spread 8.3% between runs with 2 workers against 2.6% serial.
	solveWorkers = 1
)

// opResult is what one request returned, kept for checks made after the
// load so they add nothing to measured latency.
type opResult struct {
	x     []float64 // solve solution, kept only for residual checks
	r     float64   // resistance
	write ingrass.WriteResult
	snap  *trace.TraceSnapshot
}

func runServe(ctx context.Context, spec serveSpec, rc runConfig) (*sample, error) {
	s := &sample{Layers: layers{}}
	g0, pub, err := loadGraph(spec.graph, spec.scale, s)
	if err != nil {
		return nil, err
	}
	n := g0.NumNodes()
	ops := schedule(rc.seed, spec.rate, spec.warmup, rc.window, spec.pattern, n, rhsCount, zipfS)
	if err := fillWrites(ops, g0, rc.seed); err != nil {
		return nil, err
	}
	rhs := rightHandSides(n, rc.seed)
	// A traced run traces every other request of each kind; the untraced
	// half measures what tracing itself costs.
	keepX, traced := make([]bool, len(ops)), make([]bool, len(ops))
	seen := map[opKind]int{}
	for i, o := range ops {
		keepX[i] = o.kind == opSolve && spec.residualEvery > 0 && seen[o.kind]%spec.residualEvery == 0
		traced[i] = rc.trace && seen[o.kind]%2 == 0
		seen[o.kind]++
	}

	svc, cleanup, err := setUpServices(spec, rc, pub, s)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rec *trace.Recorder
	if rc.trace {
		rec = trace.NewRecorder(trace.Options{SampleRate: 1, Seed: rc.seed})
	}
	results := make([]opResult, len(ops))
	exec := func(ctx context.Context, i int) error {
		o, r := &ops[i], &results[i]
		var root trace.Span
		if traced[i] {
			root = rec.StartRequest(o.kind.String(), trace.Remote{})
			ctx = trace.NewContext(ctx, root)
		}
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		defer cancel()
		var err error
		switch o.kind {
		case opSolve:
			var x []float64
			var st ingrass.SolveStats
			x, st, err = svc.Solve(ctx, rhs[o.rhs], ingrass.SolveOptions{})
			if err == nil && !st.Converged {
				err = fmt.Errorf("not converged after %d iterations", st.Iterations)
			}
			if keepX[i] {
				r.x = x
			}
		case opResist:
			r.r, _, err = svc.EffectiveResistance(ctx, o.u, o.v)
		case opWrite:
			r.write, err = svc.AddEdges(ctx, []ingrass.Edge{{U: o.u, V: o.v, W: o.w}})
		}
		if root.Tracing() {
			status := 200
			if err != nil {
				status = 500
			}
			r.snap = rec.Finish(root, status)
		}
		return err
	}

	// Warm-up, then the measured window, with the heap measured between.
	k := 0
	for k < len(ops) && ops[k].warm {
		k++
	}
	warmOut, _ := openLoop(ctx, ops[:k], maxInflight, exec)
	s.Heap = append(s.Heap, liveHeapMB())
	measured := ops[k:]
	for i := range measured {
		measured[i].due -= spec.warmup
	}
	gc := startGC()
	measOut, peak := openLoop(ctx, measured, maxInflight, func(ctx context.Context, i int) error { return exec(ctx, k+i) })
	gc.stop(s.Layers)
	s.Layers.add("loadgen.inflight_max", float64(peak))

	var acked, included, merged, redistributed int
	for i, out := range append(warmOut, measOut...) {
		o, r := &ops[i], &results[i]
		s.Attempted++
		switch {
		case out.shed:
			s.fail("%s request shed at the in-flight cap of %d", o.kind, maxInflight)
			continue
		case out.err != nil:
			s.fail("%s: %v", o.kind, out.err)
			continue
		}
		switch o.kind {
		case opSolve:
			if r.x != nil {
				res := residual(g0, r.x, rhs[o.rhs])
				s.check(res <= 10*solveTol, "solve residual %.3g > %.3g", res, 10*solveTol)
			}
		case opResist:
			s.check(r.r > 0 && !math.IsInf(r.r, 0), "resistance(%d,%d) = %v", o.u, o.v, r.r)
		case opWrite:
			w := r.write
			s.check(w.Included+w.Merged+w.Redistributed == 1, "write of one edge reported %+v", w)
			acked++
			included += w.Included
			merged += w.Merged
			redistributed += w.Redistributed
		}
		if o.warm {
			continue
		}
		lat := millis(out.latency(o.due))
		class := classOf(o.kind)
		if class == spec.op {
			s.Op = append(s.Op, lat)
		}
		late := millis(out.late(o.due))
		s.Layers.add("serve."+class+"_ms", lat)
		s.Layers.add("loadgen.late_ms", late)
		switch {
		case r.snap != nil:
			s.Traced = append(s.Traced, splitSpans(class, r.snap, lat, late))
		case rc.trace:
			s.Layers.add(class+".untraced_ms", lat)
		}
	}
	if acked > 0 {
		s.Layers.add("core.included", float64(included))
		s.Layers.add("core.merged", float64(merged))
		s.Layers.add("core.redistributed", float64(redistributed))
	}
	if rc.trace {
		var tracedOps []float64
		for _, t := range s.Traced {
			if t.Class == spec.op {
				tracedOps = append(tracedOps, t.Latency)
			}
		}
		addOverhead(s.Layers, tracedOps, s.Layers[spec.op+".untraced_ms"])
	}

	st := svc.Stats()
	s.check(st.GraphEdges == g0.NumEdges()+acked, "G has %d edges after %d acknowledged writes, want %d",
		st.GraphEdges, acked, g0.NumEdges()+acked)
	s.Density = st.Density
	s.Format = st.OperatorFormat
	s.Layers.add("service.generations", float64(st.Generation))
	gp, _ := svc.OriginalSnapshot()
	hp, _ := svc.SparsifierSnapshot()
	g, h := toInternal(gp), toInternal(hp)
	kap, err := kappa(g, h)
	s.check(err == nil && kap <= targetCond, "kappa_final %.4g > target %g (err %v)", kap, targetCond, err)
	s.Kappa = kap
	if rc.trace {
		if err := probeServeLayers(g0, g, h, ops, acked, s.Layers); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// setUpServices builds spec.setups services, timing each, and keeps the
// last one serving. cleanup closes it and removes its data directory.
func setUpServices(spec serveSpec, rc runConfig, pub *ingrass.Graph, s *sample) (*ingrass.Service, func(), error) {
	opts := ingrass.ServiceOptions{
		Options: publicOpts,
		Batch:   ingrass.BatchOptions{CoalesceSingles: true},
		Solve:   ingrass.SolveOptions{Workers: solveWorkers},
	}
	for i := range spec.setups {
		dir := ""
		if spec.durable {
			if err := os.MkdirAll(rc.tmpDir, 0o755); err != nil {
				return nil, nil, err
			}
			d, err := os.MkdirTemp(rc.tmpDir, "serve-")
			if err != nil {
				return nil, nil, err
			}
			dir = d
		}
		opts.DataDir = dir
		g := pub.Clone()
		liveHeapMB()
		s.Attempted++
		start := time.Now()
		svc, err := ingrass.NewService(g, opts)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, fmt.Errorf("NewService: %w", err)
		}
		s.Setup = append(s.Setup, seconds(time.Since(start)))
		cleanup := func() {
			svc.Close()
			if dir != "" {
				os.RemoveAll(dir)
			}
		}
		if i == spec.setups-1 {
			return svc, cleanup, nil
		}
		cleanup()
	}
	return nil, nil, fmt.Errorf("serve workload needs at least one set-up")
}

// fillWrites gives the writes in ops distinct new local edges of g0: a
// fixed set, in an order the seed draws, so the final graph is the same
// for every seed.
func fillWrites(ops []op, g0 *graph.Graph, seed uint64) error {
	var writes []*op
	for i := range ops {
		if ops[i].kind == opWrite {
			writes = append(writes, &ops[i])
		}
	}
	if len(writes) == 0 {
		return nil
	}
	stream, err := gen.Stream(g0, gen.StreamConfig{
		Kind: gen.StreamLocal, HopRadius: 10, WeightHi: 3, Count: len(writes), Batches: 1, Seed: configSeed,
	})
	if err != nil {
		return err
	}
	for i, e := range shuffled(stream[0], seed) {
		writes[i].u, writes[i].v, writes[i].w = e.U, e.V, e.W
	}
	return nil
}

// rightHandSides draws the fixed mean-zero right-hand sides solves use.
func rightHandSides(n int, seed uint64) [][]float64 {
	rng := vecmath.NewRNG(seed ^ 0xb5)
	out := make([][]float64, rhsCount)
	for i := range out {
		out[i] = make([]float64, n)
		rng.FillNormal(out[i])
		vecmath.CenterMean(out[i])
	}
	return out
}

// residual returns ||L_G x - b|| / ||b||.
func residual(g *graph.Graph, x, b []float64) float64 {
	r := make([]float64, len(b))
	g.LapMul(r, x)
	var num, den float64
	for i := range r {
		d := r[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

// probeServeLayers times, by direct calls, the layers a serving run
// reaches without a request span: the setup split on G(0), the kernels
// and factorization of the final (G, H), and the per-edge update cost of
// the acknowledged writes replayed through core in schedule order.
func probeServeLayers(g0, g, h *graph.Graph, ops []op, acked int, l layers) error {
	if err := probeSetupSplit(g0, 5, l); err != nil {
		return err
	}
	probeKernels(g, h, l)
	if err := probeFactorize(g, h, l); err != nil {
		return err
	}
	if acked == 0 {
		return nil
	}
	gr := g0.Clone()
	init, err := grass.Sparsify(gr, grassConfig)
	if err != nil {
		return err
	}
	sp, err := core.NewSparsifier(gr, init.H, coreConfig)
	if err != nil {
		return err
	}
	for _, o := range ops {
		if o.kind != opWrite {
			continue
		}
		e := graph.Edge{U: o.u, V: o.v, W: o.w}
		start := time.Now()
		sp.EstimateDistortion(e)
		l.add("core.estimate_ns_per_edge", float64(time.Since(start).Nanoseconds()))
		start = time.Now()
		if _, err := sp.UpdateBatch([]graph.Edge{e}); err != nil {
			return err
		}
		l.add("core.update_ns_per_edge", float64(time.Since(start).Nanoseconds()))
	}
	return nil
}
