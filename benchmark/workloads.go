package main

import (
	"context"
	"fmt"
	"time"
)

// workload is one set of inputs the benchmark runs. Exactly one of stream
// and serve is set. README.md gives the reason each workload exists.
type workload struct {
	name   string
	stream *streamSpec
	serve  *serveSpec
}

// runConfig is one run of a workload.
type runConfig struct {
	seed   uint64
	window time.Duration // measured time
	trace  bool
	tmpDir string // parent of durable serving data directories
}

func (w workload) run(ctx context.Context, rc runConfig) (*sample, error) {
	if w.stream != nil {
		return runStream(*w.stream, rc)
	}
	return runServe(ctx, *w.serve, rc)
}

// Workload sizes. The stream workloads follow the paper's Table II
// protocol; the serving workloads load a small mesh at a constant rate
// about twice as slow as its solves, so latency is service time.
func workloads() []workload {
	return []workload{
		{name: "stream-mesh", stream: &streamSpec{graph: "delaunay_n16", scale: 1}},
		{name: "stream-social", stream: &streamSpec{graph: "social_ba", scale: 1}},
		{name: "serve-read", serve: &serveSpec{
			graph: "fe_4elt2", scale: 0.25, rate: 20, warmup: 2 * time.Second,
			pattern: []opKind{opSolve, opSolve, opSolve, opSolve, opResist}, op: "read",
			residualEvery: 10, setups: 31,
		}},
		{name: "serve-mixed", serve: &serveSpec{
			graph: "fe_4elt2", scale: 0.25, rate: 28, warmup: 2 * time.Second,
			pattern: []opKind{opSolve, opWrite}, op: "write",
			durable: true, setups: 31,
		}},
	}
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
