package bench

import (
	"fmt"
	"strings"
	"time"

	"ingrass/internal/core"
	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/vecmath"
)

// Table2Row is one row of the paper's Table II: a 10-iteration incremental
// sparsification comparison between GRASS re-runs, inGRASS updates, and
// random edge inclusion, all tuned to the same target condition number.
type Table2Row struct {
	Name string
	// Density evolution: initial sparsifier density and the density H would
	// reach if every streamed edge were included.
	D0, DFull float64
	// Kappa0 is kappa(G(0), H(0)) — also the target; KappaDrift is the
	// kappa against the final G when H is left frozen (the paper's
	// "kappa(LG, LH)" drift column).
	Kappa0, KappaDrift float64
	// Final densities each method needs to restore the target kappa.
	GrassD, InGrassD, RandomD float64
	// KappaIn is the updated sparsifier's final kappa (quality check).
	KappaIn float64
	// Times: GRASS re-run total across iterations, inGRASS update total
	// (excluding setup), and the one-time setup; each the fastest of
	// timingReps runs.
	GrassT, InGrassT, SetupT time.Duration
	// Speedup = GrassT / InGrassT.
	Speedup float64
}

// timingReps is how many times RunTable2 times each side of its speedup.
// It keeps the fastest run of each, so a busy host slows neither side more
// than the other.
const timingReps = 3

// RunTable2 executes the Table II experiment for the given test cases.
func RunTable2(names []string, p Params) ([]Table2Row, error) {
	p = p.WithDefaults()
	rows := make([]Table2Row, 0, len(names))
	for _, name := range names {
		row, err := runTable2Case(name, p)
		if err != nil {
			return nil, fmt.Errorf("bench: table 2 case %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runTable2Case(name string, p Params) (Table2Row, error) {
	g0, err := buildCase(name, p)
	if err != nil {
		return Table2Row{}, err
	}
	e0 := g0.NumEdges()
	row := Table2Row{Name: name}

	// Initial sparsifier H(0) at the paper's 10% density.
	init, err := grass.Sparsify(g0, grassConfig(p.InitialDensity, p.Seed))
	if err != nil {
		return row, err
	}
	h0 := init.H
	row.D0 = graph.OffTreeDensity(h0.NumEdges(), g0.NumNodes(), e0)

	// Target condition number := initial kappa (paper's protocol).
	row.Kappa0 = p.kappa(g0, h0)
	target := row.Kappa0
	if target <= 0 {
		target = 100
	}

	// Edge stream raising density from InitialDensity to FinalDensity.
	streamCount := int((p.FinalDensity - p.InitialDensity) * float64(e0))
	if streamCount < p.Iterations {
		streamCount = p.Iterations
	}
	batches, err := gen.Stream(g0, gen.StreamConfig{
		Kind:      gen.StreamLocal,
		HopRadius: 10,
		WeightHi:  3,
		Count:     streamCount,
		Batches:   p.Iterations,
		Seed:      p.Seed + 0x51,
	})
	if err != nil {
		return row, err
	}
	row.DFull = graph.OffTreeDensity(h0.NumEdges()+streamCount, g0.NumNodes(), e0+streamCount)

	// ---- inGRASS path ---------------------------------------------------
	// Each side of the speedup is timed timingReps times on fresh copies,
	// keeping the fastest; every rep computes the same bits.
	var gIn, hIn *graph.Graph
	for rep := 0; rep < timingReps; rep++ {
		gIn, hIn = g0.Clone(), h0.Clone()
		var sp *core.Sparsifier
		setupT, err := timeIt(func() error {
			sp, err = core.NewSparsifier(gIn, hIn, coreConfig(target, p))
			return err
		})
		if err != nil {
			return row, err
		}
		var updateT time.Duration
		for _, batch := range batches {
			dt, err := timeIt(func() error {
				_, err := sp.UpdateBatch(batch)
				return err
			})
			if err != nil {
				return row, err
			}
			updateT += dt
		}
		if rep == 0 || setupT < row.SetupT {
			row.SetupT = setupT
		}
		if rep == 0 || updateT < row.InGrassT {
			row.InGrassT = updateT
		}
	}
	eFinal := e0 + streamCount
	row.InGrassD = graph.OffTreeDensity(hIn.NumEdges(), gIn.NumNodes(), eFinal)
	row.KappaIn = p.kappa(gIn, hIn)

	// The fully-updated original graph (shared by the baselines).
	gFinal := gIn

	// Frozen-H drift: the paper's kappa column right-hand value.
	row.KappaDrift = p.kappa(gFinal, h0)

	// ---- GRASS-from-scratch path ---------------------------------------
	// First find the density GRASS needs on the final graph to restore the
	// target kappa (probing is not charged to GRASS-T, matching the paper's
	// use of GRASS as a tuned baseline).
	grassD := p.InitialDensity
	for {
		res, err := grass.Sparsify(gFinal, grassConfig(grassD, p.Seed))
		if err != nil {
			return row, err
		}
		k := p.kappa(gFinal, res.H)
		if (k > 0 && k <= target*1.05) || grassD >= p.FinalDensity {
			row.GrassD = graph.OffTreeDensity(res.H.NumEdges(), gFinal.NumNodes(), eFinal)
			break
		}
		grassD *= 1.2
	}
	// GRASS-T: re-sparsify from scratch after every batch, on the growing
	// graph, at the tuned density; the fastest of timingReps runs.
	for rep := 0; rep < timingReps; rep++ {
		gGrass := g0.Clone()
		var grassT time.Duration
		for _, batch := range batches {
			for _, e := range batch {
				gGrass.AddEdge(e.U, e.V, e.W)
			}
			dt, err := timeIt(func() error {
				_, err := grass.Sparsify(gGrass, grassConfig(grassD, p.Seed))
				return err
			})
			if err != nil {
				return row, err
			}
			grassT += dt
		}
		if rep == 0 || grassT < row.GrassT {
			row.GrassT = grassT
		}
	}
	if row.InGrassT > 0 {
		row.Speedup = float64(row.GrassT) / float64(row.InGrassT)
	}

	// ---- Random baseline -------------------------------------------------
	// Include uniformly random subsets of the stream into H(0), growing the
	// fraction until the target kappa is restored.
	flat := make([]graph.Edge, 0, streamCount)
	for _, b := range batches {
		flat = append(flat, b...)
	}
	rng := vecmath.NewRNG(p.Seed + 0x77)
	perm := rng.Perm(len(flat))
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		hr := h0.Clone()
		take := int(frac * float64(len(flat)))
		for _, idx := range perm[:take] {
			e := flat[idx]
			hr.AddEdge(e.U, e.V, e.W)
		}
		k := p.kappa(gFinal, hr)
		row.RandomD = graph.OffTreeDensity(hr.NumEdges(), gFinal.NumNodes(), eFinal)
		if k > 0 && k <= target*1.05 {
			break
		}
	}
	return row, nil
}

// FormatTable2 renders rows like the paper's Table II.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %16s %8s %9s %8s %9s %10s %10s %8s\n",
		"Test Case", "Density(D)", "kappa(G,H)", "GRASS-D", "inGRASS-D", "Rand-D",
		"kappa-in", "GRASS-T", "inGRASS-T", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %5.1f%% -> %4.0f%% %7.0f -> %5.0f %7.1f%% %8.1f%% %7.1f%% %9.1f %9.3fs %9.4fs %7.1fx\n",
			r.Name, 100*r.D0, 100*r.DFull, r.Kappa0, r.KappaDrift,
			100*r.GrassD, 100*r.InGrassD, 100*r.RandomD, r.KappaIn,
			r.GrassT.Seconds(), r.InGrassT.Seconds(), r.Speedup)
	}
	return b.String()
}
