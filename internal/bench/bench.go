// Package bench is the experiment harness that regenerates the paper's
// evaluation artifacts — Table I (setup vs GRASS runtime), Table II
// (10-iteration incremental update comparison of GRASS / inGRASS / Random),
// Table III (robustness across initial densities), and Fig. 4 (runtime
// scalability) — on the synthetic benchmark families of internal/gen.
//
// cmd/experiments runs them and prints the full tables with condition
// numbers.
package bench

import (
	"context"
	"fmt"
	"time"

	"ingrass/internal/cond"
	"ingrass/internal/core"
	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/solver"
)

// Params bundles the experiment knobs shared by all tables.
type Params struct {
	// Scale multiplies benchmark node counts (1.0 = laptop defaults).
	Scale float64
	// Seed drives all randomness.
	Seed uint64
	// InitialDensity is the off-tree density of H(0). Paper: 0.10.
	InitialDensity float64
	// FinalDensity is the density the stream would reach if every new edge
	// were included. Paper: ~0.34.
	FinalDensity float64
	// Iterations is the number of update batches. Paper: 10.
	Iterations int
	// CondIters / CondTol trade condition-number estimation accuracy for
	// speed.
	CondIters int
	CondTol   float64
	// Workers parallelizes inner kernels (0 = GOMAXPROCS).
	Workers int
}

// WithDefaults fills unset fields with the paper's settings.
func (p Params) WithDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.InitialDensity <= 0 {
		p.InitialDensity = 0.10
	}
	if p.FinalDensity <= 0 {
		p.FinalDensity = 0.34
	}
	if p.Iterations <= 0 {
		p.Iterations = 10
	}
	if p.CondIters <= 0 {
		p.CondIters = 40
	}
	if p.CondTol <= 0 {
		p.CondTol = 5e-3
	}
	return p
}

func (p Params) condOptions() cond.Options {
	return cond.Options{
		MaxIters: p.CondIters,
		Tol:      p.CondTol,
		Seed:     p.Seed,
		// The GRASS-line convention: kappa = lambda_max of the pencil (see
		// cond.Options.LambdaMaxOnly). The paper's tables use it.
		LambdaMaxOnly: true,
		// Loose inner solves: a table-grade kappa needs ~2 digits, and the
		// power iteration is self-correcting, so cap CG work tightly.
		Solver: solver.Options{Tol: 1e-5, MaxIter: 600, Workers: p.Workers},
	}
}

// kappa estimates kappa(G, H), returning NaN on failure rather than
// aborting a whole table.
func (p Params) kappa(g, h *graph.Graph) float64 {
	res, err := cond.Estimate(context.Background(), g, h, p.condOptions())
	if err != nil {
		return -1
	}
	return res.Kappa
}

// buildCase constructs the named benchmark graph.
func buildCase(name string, p Params) (*graph.Graph, error) {
	tc, err := gen.Lookup(name)
	if err != nil {
		return nil, err
	}
	g, err := tc.Build(p.Scale, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: building %s: %w", name, err)
	}
	return g, nil
}

// grassConfig is the from-scratch baseline configuration at a density.
func grassConfig(density float64, seed uint64) grass.Config {
	return grass.Config{
		TargetDensity:    density,
		Tree:             grass.TreeLowStretch,
		SimilarityFilter: true,
		Seed:             seed,
	}
}

// coreConfig is the inGRASS configuration for a condition target.
func coreConfig(target float64, p Params) core.Config {
	return core.Config{
		TargetCond: target,
		LRD: lrd.Config{
			Krylov: krylov.Config{Seed: p.Seed, Workers: p.Workers},
		},
	}
}

// timeIt runs f and returns its wall-clock duration.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}
