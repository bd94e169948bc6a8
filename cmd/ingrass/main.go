// Command ingrass sparsifies graphs from the command line.
//
// Sparsify a graph file once (GRASS-style, from scratch):
//
//	ingrass sparsify -in graph.txt -out sparse.txt -density 0.1
//
// Incrementally maintain a sparsifier while streaming edge batches:
//
//	ingrass update -in graph.txt -stream new_edges.txt -batches 10 \
//	       -density 0.1 -out sparse.txt [-kappa]
//
// Solve the Laplacian system L_G x = b with a sparsifier preconditioner:
//
//	ingrass solve -in graph.txt -rhs b.txt [-sparsifier sparse.txt] [-out x.txt]
//
// Serve the concurrent sparsifier service over HTTP (batched writes,
// snapshot-isolated reads). With -data-dir the server is durable: writes
// are logged to a write-ahead log before they become visible, state is
// checkpointed periodically and on shutdown, and a restart recovers the
// exact pre-crash generation:
//
//	ingrass serve -in graph.txt -addr :8080 -density 0.1 \
//	       [-data-dir d/ -fsync always -checkpoint-every 5m]
//
// Replicate a durable server: the primary ships its WAL (-repl), followers
// mirror it bit-exactly and serve reads (-follow), and a router fans reads
// across followers while forwarding writes to the primary:
//
//	ingrass serve -in graph.txt -data-dir d/ -repl -addr :8080
//	ingrass serve -follow http://127.0.0.1:8080 -addr :8081
//	ingrass route -addr :8090 -primary http://127.0.0.1:8080 \
//	       -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Initialize a durable data directory without serving (setup runs once,
// every later start recovers instead):
//
//	ingrass save -in graph.txt -data-dir d/
//
// Recover a data directory, inspect it, and optionally verify a solve or
// export the recovered graphs:
//
//	ingrass load -data-dir d/ [-verify] [-export-h h.txt] [-export-g g.txt]
//
// Graph files use the text edge-list format ("N M" header then "u v w"
// lines; '#' comments). The stream file is a headerless list of "u v w"
// lines, split evenly into the requested number of batches. RHS files hold
// one value per node per line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ingrass"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "sparsify":
		cmdSparsify(os.Args[2:])
	case "update":
		cmdUpdate(os.Args[2:])
	case "solve":
		cmdSolve(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "route":
		cmdRoute(os.Args[2:])
	case "save":
		cmdSave(os.Args[2:])
	case "load":
		cmdLoad(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "loadgen":
		cmdLoadgen(os.Args[2:])
	case "slow":
		cmdSlow(os.Args[2:])
	case "metricslint":
		cmdMetricsLint(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ingrass <command> [flags]

commands:
  sparsify   build a spectral sparsifier from scratch
  update     incrementally maintain a sparsifier over an edge stream
  solve      solve the Laplacian system L x = b with a sparsifier preconditioner
  serve      run the concurrent sparsifier service over HTTP
             (-repl ships the WAL to followers; -follow joins a primary read-only)
  route      fan reads across follower replicas, forward writes to the primary
  save       initialize a durable data directory from a graph (setup + checkpoint)
  load       recover a data directory; inspect, verify, or export the state
  info       print graph statistics
  loadgen    drive a serve instance with an open-loop trace workload; report SLOs
  slow       render a server's flight-recorder traces as per-span waterfalls
  metricslint  lint a Prometheus text exposition (stdin or -in) for format violations`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ingrass:", err)
	os.Exit(1)
}

func loadGraph(path string) *ingrass.Graph {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	g, err := ingrass.ReadGraph(bufio.NewReader(f))
	if err != nil {
		fatal(err)
	}
	return g
}

func saveGraph(path string, g *ingrass.Graph) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := g.Write(f); err != nil {
		fatal(err)
	}
}

func cmdSparsify(args []string) {
	fs := flag.NewFlagSet("sparsify", flag.ExitOnError)
	in := fs.String("in", "", "input graph file (required)")
	out := fs.String("out", "", "output sparsifier file (required)")
	density := fs.Float64("density", 0.1, "off-tree edge budget as fraction of |E|")
	seed := fs.Uint64("seed", 1, "random seed")
	kappa := fs.Bool("kappa", false, "also estimate kappa(G, H) (slow on large graphs)")
	_ = fs.Parse(args)
	if *in == "" || *out == "" {
		fs.Usage()
		os.Exit(2)
	}
	g := loadGraph(*in)
	start := time.Now()
	h, err := ingrass.Sparsify(g, *density, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sparsified %s: %d nodes, %d -> %d edges (D=%.1f%%) in %v\n",
		*in, g.NumNodes(), g.NumEdges(), h.NumEdges(),
		100*h.OffTreeDensity(g.NumEdges()), time.Since(start).Round(time.Millisecond))
	if *kappa {
		k, err := ingrass.ConditionNumber(g, h, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("kappa(G, H) ~= %.1f\n", k)
	}
	saveGraph(*out, h)
}

func cmdUpdate(args []string) {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	in := fs.String("in", "", "input graph file (required)")
	streamPath := fs.String("stream", "", "new-edge stream file (required)")
	out := fs.String("out", "", "output sparsifier file (required)")
	batches := fs.Int("batches", 10, "number of update iterations")
	density := fs.Float64("density", 0.1, "initial sparsifier density")
	target := fs.Float64("target", 0, "target condition number (0 = default)")
	seed := fs.Uint64("seed", 1, "random seed")
	kappa := fs.Bool("kappa", false, "estimate kappa before/after (slow)")
	_ = fs.Parse(args)
	if *in == "" || *streamPath == "" || *out == "" {
		fs.Usage()
		os.Exit(2)
	}
	g := loadGraph(*in)
	stream := loadStream(*streamPath)

	setupStart := time.Now()
	inc, err := ingrass.NewIncremental(g, ingrass.Options{
		InitialDensity: *density,
		TargetCond:     *target,
		Seed:           *seed,
	})
	if err != nil {
		fatal(err)
	}
	setupTime := time.Since(setupStart)
	fmt.Printf("setup: H(0) with %d edges, filter level %d, %v\n",
		inc.Sparsifier().NumEdges(), inc.FilterLevel(), setupTime.Round(time.Millisecond))

	var kBefore float64
	if *kappa {
		kBefore, err = ingrass.ConditionNumber(inc.Original(), inc.Sparsifier(), *seed)
		if err != nil {
			fatal(err)
		}
	}

	per := (len(stream) + *batches - 1) / *batches
	var updateTime time.Duration
	for b := 0; b*per < len(stream); b++ {
		lo, hi := b*per, (b+1)*per
		if hi > len(stream) {
			hi = len(stream)
		}
		t0 := time.Now()
		rep, err := inc.AddEdges(stream[lo:hi])
		if err != nil {
			fatal(err)
		}
		updateTime += time.Since(t0)
		fmt.Printf("batch %d: %d edges -> %d included, %d merged, %d redistributed\n",
			b+1, rep.Processed, rep.Included, rep.Merged, rep.Redistributed)
	}
	fmt.Printf("updates: %v total; final density %.1f%%\n",
		updateTime.Round(time.Microsecond), 100*inc.Density())
	if *kappa {
		kAfter, err := ingrass.ConditionNumber(inc.Original(), inc.Sparsifier(), *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("kappa: %.1f -> %.1f\n", kBefore, kAfter)
	}
	saveGraph(*out, inc.Sparsifier())
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "graph file (required)")
	_ = fs.Parse(args)
	if *in == "" {
		fs.Usage()
		os.Exit(2)
	}
	g := loadGraph(*in)
	fmt.Printf("%s: %s connected=%v totalWeight=%.4g\n",
		*in, g.String(), g.IsConnected(), g.TotalWeight())
}

// loadStream parses a headerless "u v w" edge list.
func loadStream(path string) []ingrass.Edge {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var out []ingrass.Edge
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) != 3 {
			fatal(fmt.Errorf("%s:%d: want 'u v w', got %q", path, line, s))
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		w, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			fatal(fmt.Errorf("%s:%d: parse error in %q", path, line, s))
		}
		out = append(out, ingrass.Edge{U: u, V: v, W: w})
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	return out
}
