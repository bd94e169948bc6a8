package main

import (
	"time"

	"ingrass/internal/core"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/precond"
	"ingrass/internal/sketch"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// Direct calls into single layers, timed by the harness. A traced run
// uses them for the layers no request span covers.

// freeze builds g's Laplacian operator the way the benchmark's service
// snapshots do: solveWorkers workers and the automatic storage format.
func freeze(g *graph.Graph) *sparse.LapOperator {
	op := sparse.NewLapOperator(g)
	op.SetWorkers(solveWorkers)
	op.SetFormat(solver.FormatAuto)
	return op
}

// probeKernels times one frozen Laplacian product on g and on h and
// returns the storage format chosen for g.
func probeKernels(g, h *graph.Graph, l layers) string {
	gop := freeze(g)
	for _, c := range []struct {
		key string
		op  *sparse.LapOperator
	}{{"kernel.spmv_g_us", gop}, {"kernel.spmv_h_us", freeze(h)}} {
		x := make([]float64, c.op.Dim())
		vecmath.NewRNG(1).FillNormal(x)
		dst := make([]float64, len(x))
		start := time.Now()
		c.op.Apply(dst, x)
		// Time batches of at least ~200µs so timer resolution does not matter.
		reps := max(1, min(1000, int(200*time.Microsecond/max(time.Since(start), time.Nanosecond))))
		for range 50 {
			start := time.Now()
			for range reps {
				c.op.Apply(dst, x)
			}
			l.add(c.key, float64(time.Since(start).Nanoseconds())/1e3/float64(reps))
		}
	}
	return gop.Format().String()
}

// probeFactorize times what a reader pays on the first solve of a new
// generation: freezing G's operator and factorizing H.
func probeFactorize(g, h *graph.Graph, l layers) error {
	for range 5 {
		start := time.Now()
		freeze(g)
		if _, err := precond.Factorize(h, solver.Options{Workers: solveWorkers}); err != nil {
			return err
		}
		l.add("precond.factorize_ms", millis(time.Since(start)))
	}
	return nil
}

// probeSetupSplit times the inGRASS setup phase on g layer by layer.
func probeSetupSplit(g *graph.Graph, reps int, l layers) error {
	for range reps {
		start := time.Now()
		init, err := grass.Sparsify(g, grassConfig)
		if err != nil {
			return err
		}
		l.add("grass.sparsify_s", seconds(time.Since(start)))
		// NewSparsifier changes g only on updates, so g can be shared here.
		if _, err := timeSetup(g, init.H, l); err != nil {
			return err
		}
	}
	return nil
}

// timeSetup runs core.NewSparsifier on (g, h) and, before it, each setup
// layer it runs by a direct call on h: the level-1 Krylov embedding, the
// whole LRD build, and the sketch index. NewSparsifier's self time is its
// duration minus the LRD build and the sketch of the same rep.
func timeSetup(g, h *graph.Graph, l layers) (*core.Sparsifier, error) {
	cfg := coreConfig.LRD
	kcfg := cfg.Krylov
	kcfg.Seed += 0x9e37 // the seed lrd.Build gives level 1
	start := time.Now()
	if _, err := krylov.NewEmbedding(h, kcfg); err != nil {
		return nil, err
	}
	l.add("krylov.embed_s", seconds(time.Since(start)))
	start = time.Now()
	dec, err := lrd.Build(h, cfg)
	if err != nil {
		return nil, err
	}
	lrdT := time.Since(start)
	l.add("lrd.build_s", seconds(lrdT))
	l.add("lrd.levels", float64(dec.Levels))
	start = time.Now()
	sk, err := sketch.New(dec, h)
	if err != nil {
		return nil, err
	}
	skT := time.Since(start)
	l.add("sketch.new_s", seconds(skT))
	l.add("sketch.entries", float64(sk.MemoryFootprint()))
	start = time.Now()
	sp, err := core.NewSparsifier(g, h, coreConfig)
	if err != nil {
		return nil, err
	}
	l.add("core.setup_self_s", seconds(time.Since(start)-lrdT-skT))
	return sp, nil
}
