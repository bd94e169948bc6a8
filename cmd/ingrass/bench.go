package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ingrass/internal/batch"
	"ingrass/internal/core"
	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/kernel"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
	"ingrass/internal/service"
	"ingrass/internal/solver"
	"ingrass/internal/sparse"
	"ingrass/internal/vecmath"
)

// The bench subcommand runs the repository's hot-path microbenchmarks at a
// fixed scale and appends a labeled run to a machine-readable trajectory
// file (BENCH_solve.json). Every performance PR re-runs it and commits the
// result, so regressions show up as a new run that is slower than the last
// one — reviewable in the diff, not just in CI logs.

// benchResult is one benchmark measurement.
type benchResult struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
	// SpeedupVsSerial is set on parallel entries that have a serial twin.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	// Format and PaddingRatio are set on entries that freeze a
	// sparse.LapOperator: the layout the freeze chose (resolving -format
	// auto) and its SELL padding ratio.
	Format       string  `json:"format,omitempty"`
	PaddingRatio float64 `json:"padding_ratio,omitempty"`
}

// benchRun is one labeled invocation of the suite.
type benchRun struct {
	Label      string `json:"label"`
	Recorded   string `json:"recorded"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Format is the requested -format flag value; SIMD reports whether the
	// SIMD vecmath bodies were active for the run.
	Format  string        `json:"format,omitempty"`
	SIMD    bool          `json:"simd"`
	Note    string        `json:"note,omitempty"`
	Results []benchResult `json:"results"`
}

// benchFile is the committed trajectory: runs appended in chronological
// order.
type benchFile struct {
	Schema int        `json:"schema"`
	Runs   []benchRun `json:"runs"`
}

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_solve.json", "trajectory file to append this run to")
	label := fs.String("label", "dev", "label for this run")
	note := fs.String("note", "", "free-form note stored with the run")
	stdout := fs.Bool("stdout", false, "print the run as JSON instead of appending to -out")
	formatFlag := fs.String("format", "auto", "frozen operator storage layout: auto, csr, or sell")
	simd := fs.Bool("simd", vecmath.SIMDActive(), "use the SIMD vecmath bodies (where supported)")
	fs.Parse(args)

	format, err := solver.ParseFormat(*formatFlag)
	if err != nil {
		fatal(err)
	}
	vecmath.SetSIMD(*simd)

	run := benchRun{
		Label:      *label,
		Recorded:   time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Format:     format.String(),
		SIMD:       vecmath.SIMDActive(),
		Note:       *note,
	}

	addPair := func(name string, serialNs float64, r benchResult) benchResult {
		if serialNs > 0 && r.NsOp > 0 {
			r.SpeedupVsSerial = serialNs / r.NsOp
		}
		return r
	}

	measure := func(name string, fn func(b *testing.B)) benchResult {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", name)
		res := testing.Benchmark(fn)
		return benchResult{
			Name:     name,
			NsOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesOp:  res.AllocedBytesPerOp(),
			AllocsOp: res.AllocsPerOp(),
		}
	}

	// --- SpMV: serial vs persistent pool --------------------------------
	for _, n := range []int{10000, 100000} {
		grid := benchGrid(n)
		csr := graph.NewCSR(grid)
		x := make([]float64, csr.N)
		dst := make([]float64, csr.N)
		for i := range x {
			x[i] = math.Sin(float64(i))
		}
		prefix := fmt.Sprintf("spmv/grid/n=%d", csr.N)
		serial := measure(prefix+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				csr.LapMul(dst, x)
			}
		})
		run.Results = append(run.Results, serial)
		procs := runtime.GOMAXPROCS(0)
		pool := kernel.Shared(procs)
		part := csr.NNZPartition(pool.Workers())
		run.Results = append(run.Results, addPair(prefix, serial.NsOp,
			measure(fmt.Sprintf("%s/pool/workers=%d", prefix, pool.Workers()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pool.LapMul(csr, part, dst, x)
				}
			})))
		// Frozen-operator product under the requested -format, through the
		// same Apply path the service serves (arena-backed SELL when chosen).
		op := sparse.NewLapOperator(grid)
		op.SetWorkers(procs)
		op.SetFormat(format)
		opRes := addPair(prefix, serial.NsOp,
			measure(fmt.Sprintf("%s/op/%s/workers=%d", prefix, op.Format(), op.WorkerCount()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.Apply(dst, x)
				}
			}))
		opRes.Format = op.Format().String()
		opRes.PaddingRatio = op.PaddingRatio()
		run.Results = append(run.Results, opRes)
	}

	// social_ba's power-law degrees are the nnz-skew stress for the
	// balanced partition.
	if tc, err := gen.Lookup("social_ba"); err == nil {
		if g, err := tc.Build(0.1, 1); err == nil {
			csr := graph.NewCSR(g)
			x := make([]float64, csr.N)
			dst := make([]float64, csr.N)
			for i := range x {
				x[i] = math.Sin(float64(i))
			}
			prefix := fmt.Sprintf("spmv/social_ba/n=%d", csr.N)
			serial := measure(prefix+"/serial", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					csr.LapMul(dst, x)
				}
			})
			run.Results = append(run.Results, serial)
			pool := kernel.Shared(runtime.GOMAXPROCS(0))
			part := csr.NNZPartition(pool.Workers())
			run.Results = append(run.Results, addPair(prefix, serial.NsOp,
				measure(fmt.Sprintf("%s/pool/workers=%d", prefix, pool.Workers()), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						pool.LapMul(csr, part, dst, x)
					}
				})))
		}
	}

	// --- Warm preconditioned solve (the service read path) ---------------
	// Same shape as internal/service's BenchmarkSolveWarm and the CI
	// allocation gates: a 16x16 grid engine, warm factorization, SolveInto.
	warmWorkers := []int{1}
	if runtime.GOMAXPROCS(0) > 1 {
		warmWorkers = append(warmWorkers, runtime.GOMAXPROCS(0))
	}
	var warmSerialNs float64
	for _, workers := range warmWorkers {
		name := "solve_warm/grid16x16/serial"
		if workers > 1 {
			name = fmt.Sprintf("solve_warm/grid16x16/parallel/workers=%d", workers)
		}
		eng, n := benchEngine(workers, format)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = math.Sin(float64(i))
		}
		vecmath.CenterMean(rhs)
		x := make([]float64, n)
		snap := eng.Current()
		opts := solver.Options{Tol: 1e-8}
		for i := 0; i < 3; i++ {
			if _, err := snap.SolveInto(nil, x, rhs, opts); err != nil {
				fatal(fmt.Errorf("bench: warm solve: %w", err))
			}
		}
		res := addPair(name, warmSerialNs, measure(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := snap.SolveInto(nil, x, rhs, opts); err != nil {
					b.Fatal(err)
				}
			}
		}))
		if workers == 1 {
			warmSerialNs = res.NsOp
		}
		sv := eng.Stats()
		res.Format = sv.OperatorFormat
		res.PaddingRatio = sv.OperatorPaddingRatio
		run.Results = append(run.Results, res)
		eng.Close()
	}

	// --- Batched query engine: concurrent clients, single vs coalesced -----
	// Aggregate solve throughput with c clients issuing solves against one
	// warm generation: the single path runs independent SolveInto calls, the
	// coalesced path rides the scheduler and shares blocked multi-RHS
	// executions. ns_op is wall-time per completed solve (inverse aggregate
	// throughput); speedup_vs_serial on coalesced entries is the coalescing
	// win at that concurrency. A larger grid than the warm-solve gate so the
	// shared CSR traversal has real structure to amortize.
	{
		eng, n := benchBatchEngine(format)
		snap := eng.Current()
		// Per-client distinct RHS; warm every pool first.
		mkRHS := func(c int) []float64 {
			rhs := make([]float64, n)
			for i := range rhs {
				rhs[i] = math.Sin(float64(i*(c+2) + c))
			}
			vecmath.CenterMean(rhs)
			return rhs
		}
		opts := solver.Options{Tol: 1e-8}
		warm := make([]float64, n)
		for i := 0; i < 3; i++ {
			if _, err := snap.SolveInto(nil, warm, mkRHS(i), opts); err != nil {
				fatal(fmt.Errorf("bench: batch warmup: %w", err))
			}
		}
		ctx := context.Background()
		for _, clients := range []int{1, 4, 8, 16} {
			run1 := func(b *testing.B, coalesced bool) {
				var remaining atomic.Int64
				remaining.Store(int64(b.N))
				var wg sync.WaitGroup
				b.ResetTimer()
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rhs := mkRHS(c)
						x := make([]float64, n)
						for remaining.Add(-1) >= 0 {
							var err error
							if coalesced {
								_, err = eng.SolveCoalesced(ctx, snap, x, rhs, opts)
							} else {
								_, err = snap.SolveInto(ctx, x, rhs, opts)
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}(c)
				}
				wg.Wait()
			}
			prefix := fmt.Sprintf("batch/solve_throughput/torus64x64d12/clients=%d", clients)
			single := measure(prefix+"/single", func(b *testing.B) { run1(b, false) })
			run.Results = append(run.Results, single)
			run.Results = append(run.Results, addPair(prefix, single.NsOp,
				measure(prefix+"/coalesced", func(b *testing.B) { run1(b, true) })))
		}

		// k-pair resistance sweep: one op is the whole k-pair sweep — k
		// independent queries vs ceil(k/8) blocked solves of 8 basis columns.
		const k = 32
		pairs := make([][2]int, k)
		for i := range pairs {
			pairs[i] = [2]int{(i * 37) % n, (i*53 + n/2) % n}
		}
		prefix := fmt.Sprintf("batch/resistance_sweep/torus64x64d12/k=%d", k)
		singleSweep := measure(prefix+"/single", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					if _, err := snap.EffectiveResistance(ctx, p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		run.Results = append(run.Results, singleSweep)
		const sweepBlock = 8
		bs := make([][]float64, sweepBlock)
		xs := make([][]float64, sweepBlock)
		for i := range bs {
			bs[i] = make([]float64, n)
			xs[i] = make([]float64, n)
		}
		out := make([]sparse.ColumnResult, sweepBlock)
		run.Results = append(run.Results, addPair(prefix, singleSweep.NsOp,
			measure(prefix+"/batch", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < k; lo += sweepBlock {
						hi := lo + sweepBlock
						if hi > k {
							hi = k
						}
						w := hi - lo
						for c := 0; c < w; c++ {
							vecmath.Zero(bs[c])
							vecmath.Basis(bs[c], pairs[lo+c][0], pairs[lo+c][1])
						}
						if _, err := snap.SolveBlockInto(ctx, xs[:w], bs[:w], out[:w], nil, solver.Options{}); err != nil {
							b.Fatal(err)
						}
						for c := 0; c < w; c++ {
							if out[c].Err != nil {
								b.Fatal(out[c].Err)
							}
						}
					}
				}
			})))
		eng.Close()
	}

	// --- Jacobi-PCG Laplacian solve (fe_4elt2, matches BenchmarkLapSolve)
	if tc, err := gen.Lookup("fe_4elt2"); err == nil {
		if g, err := tc.Build(0.1, 1); err == nil {
			s := sparse.NewLaplacianSolver(g, solver.Options{Tol: 1e-6})
			rhs := make([]float64, g.NumNodes())
			vecmath.NewRNG(1).FillNormal(rhs)
			vecmath.CenterMean(rhs)
			dst := make([]float64, g.NumNodes())
			run.Results = append(run.Results, measure("lapsolve/fe_4elt2/tol=1e-6", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(nil, dst, rhs); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}

	// --- Per-edge incremental update (the paper's O(log N) claim) --------
	if g, err := gen.Delaunay(8000, 1); err == nil {
		if init, err := grass.Sparsify(g, grass.Config{
			TargetDensity: 0.10, Tree: grass.TreeLowStretch, SimilarityFilter: true, Seed: 1,
		}); err == nil {
			sp, err := core.NewSparsifier(g.Clone(), init.H.Clone(), core.Config{
				TargetCond: 100,
				LRD:        lrd.Config{Krylov: krylov.Config{Seed: 1}},
			})
			if err == nil {
				stream, serr := gen.Stream(g, gen.StreamConfig{Kind: gen.StreamLocal, Count: 4096, Batches: 1, Seed: 3})
				if serr == nil {
					flat := stream[0]
					run.Results = append(run.Results, measure("update/delaunay/n=8000/per-edge", func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							e := flat[i%len(flat)]
							if _, err := sp.UpdateBatch([]graph.Edge{e}); err != nil {
								b.Fatal(err)
							}
						}
					}))
				}
			}
		}
	}

	if *stdout {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(run); err != nil {
			fatal(fmt.Errorf("bench: %w", err))
		}
		return
	}

	var file benchFile
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fatal(fmt.Errorf("bench: %s exists but is not a trajectory file: %w", *out, err))
		}
	}
	file.Schema = 1
	file.Runs = append(file.Runs, run)
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}
	fmt.Printf("bench: appended run %q (%d results) to %s\n", run.Label, len(run.Results), *out)
}

// benchGrid builds a ~n-node 2D grid (the SpMV benchmark substrate:
// bounded degree, bandwidth-bound).
func benchGrid(n int) *graph.Graph {
	side := int(math.Sqrt(float64(n)))
	g := graph.New(side*side, 0)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			u := r*side + c
			if c+1 < side {
				g.AddEdge(u, u+1, 1)
			}
			if r+1 < side {
				g.AddEdge(u, u+side, 1)
			}
		}
	}
	return g
}

// benchTorus builds a side x side torus with 1-step, diagonal, and 2-step
// links (degree 12) — a mesh-like graph where the Laplacian product carries
// a realistic share of the solve, unlike the minimal degree-4 grid.
func benchTorus(side int) *graph.Graph {
	n := side * side
	g := graph.New(n, 6*n)
	id := func(i, j int) int { return ((i+side)%side)*side + (j+side)%side }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			u := id(i, j)
			g.AddEdge(u, id(i, j+1), 1)
			g.AddEdge(u, id(i+1, j), 1)
			g.AddEdge(u, id(i+1, j+1), 1)
			g.AddEdge(u, id(i+1, j-1), 0.5)
			g.AddEdge(u, id(i, j+2), 0.5)
			g.AddEdge(u, id(i+2, j), 0.5)
		}
	}
	return g
}

// benchBatchEngine builds the engine the batched-workload benchmarks run
// against: a 64x64 degree-12 torus (4096 nodes, ~25k edges) with an
// off-tree sparsifier density of 0.3. The blocked-vs-independent ratio is
// governed by how much of a solve streams CSR structure (which coalescing
// amortizes) versus per-column vector passes (which it cannot); this
// mesh-plus-moderate-sparsifier workload is the serving shape the engine
// targets. The block width is 8, matching the 8-client acceptance point.
func benchBatchEngine(format solver.Format) (*service.Engine, int) {
	g := benchTorus(64)
	init, err := grass.InitialSparsifier(g, 0.3, 1)
	if err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}
	sp, err := core.NewSparsifier(g, init.H, core.Config{
		TargetCond: 50,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 2}},
	})
	if err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}
	eng := service.New(sp, service.Options{
		Solver: solver.Options{Workers: runtime.GOMAXPROCS(0), Format: format},
		// 1ms window: wide enough that a wave of resubmitting clients
		// refills the next group before it seals (the scheduler's
		// busy-executor re-arm handles the sustained-load case; the window
		// covers the wave-start race on an otherwise idle engine).
		Batch: batch.Options{Window: time.Millisecond, MaxBlock: 8},
	})
	return eng, g.NumNodes()
}

// benchEngine builds the 16x16-grid service engine the warm-solve gate
// uses, with the given frozen solver parallelism.
func benchEngine(workers int, format solver.Format) (*service.Engine, int) {
	g := benchGrid(256)
	init, err := grass.InitialSparsifier(g, 0.1, 1)
	if err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}
	sp, err := core.NewSparsifier(g, init.H, core.Config{
		TargetCond: 50,
		LRD:        lrd.Config{Krylov: krylov.Config{Seed: 2}},
	})
	if err != nil {
		fatal(fmt.Errorf("bench: %w", err))
	}
	return service.New(sp, service.Options{Solver: solver.Options{Workers: workers, Format: format}}), g.NumNodes()
}
