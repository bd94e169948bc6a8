// Sparsifier-preconditioned solver: the downstream payoff of maintaining a
// spectral sparsifier. We solve Laplacian systems L_G x = b (the core
// kernel of DC power-grid analysis) with the sparsifier as preconditioner,
// keep streaming new wires into the grid, and watch the solve cost stay
// flat because the incrementally-updated sparsifier keeps tracking G.
//
//	go run ./examples/solver [-rows 100] [-cols 100]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"ingrass"
)

func main() {
	rows := flag.Int("rows", 100, "grid rows")
	cols := flag.Int("cols", 100, "grid cols")
	flag.Parse()

	g, err := ingrass.GeneratePowerGrid(*rows, *cols, 0.05, 5)
	if err != nil {
		log.Fatal(err)
	}
	n := g.NumNodes()
	fmt.Printf("power grid: %d nodes, %d wires\n", n, g.NumEdges())

	inc, err := ingrass.NewIncremental(g, ingrass.Options{InitialDensity: 0.12, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	// Current injection: +1 at one corner, -1 at the other (a two-pin DC
	// analysis), mean-zero as Laplacian systems require.
	b := make([]float64, n)
	b[0] = 1
	b[n-1] = -1

	solve := func(tag string) {
		start := time.Now()
		x, stats, err := ingrass.SolveLaplacian(context.Background(), inc.Original(), inc.Sparsifier(), b, ingrass.SolveOptions{Tol: 1e-8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %3d CG iters, %d sparsifier solves, residual %.1e, V(drop)=%.4f, %v\n",
			tag, stats.Iterations, stats.PrecondUses, stats.Residual,
			x[0]-x[n-1], time.Since(start).Round(time.Millisecond))
	}

	solve("initial grid      ")

	// Stream several rounds of new wires, updating the sparsifier, and
	// re-solve: iteration counts stay flat because kappa(G, H) does.
	for round := 1; round <= 3; round++ {
		stream, err := ingrass.NewEdgeStream(inc.Original(), g.NumEdges()/20, 1, true, uint64(round))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := inc.AddEdges(stream[0]); err != nil {
			log.Fatal(err)
		}
		solve(fmt.Sprintf("after wire batch %d", round))
	}
}
