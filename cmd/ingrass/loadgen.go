package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ingrass/internal/obs"
)

// cmdLoadgen drives a running `ingrass serve` instance with an open-loop
// workload and reports latency SLOs. Open-loop means arrivals follow a
// pre-generated schedule regardless of how fast the server responds — slow
// responses pile up as in-flight requests instead of silently throttling
// the offered rate, which is the only way p99 under overload means
// anything. (A closed loop, where each client waits for its response before
// sending the next request, hides exactly the queueing it should measure —
// the classic coordinated-omission trap.)
//
// The schedule is generated up front from -seed (Poisson or bursty
// arrivals at -qps across -clients independent streams, op classes drawn
// from -mix, node pairs zipf-skewed by -zipf), can be written to a trace
// file with -trace-out, and replayed bit-identically with -trace-in — so a
// latency regression can be reproduced against the exact same request
// sequence.
//
//	ingrass loadgen -url http://localhost:8080 -duration 10s -qps 200 \
//	    -clients 8 -mix solve=0.7,resist=0.2,write=0.1 -out BENCH_slo.json
func cmdLoadgen(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	cfg := loadgenConfig{}
	fs.StringVar(&cfg.URL, "url", "http://localhost:8080", "base URL of the serve instance")
	fs.StringVar(&cfg.URLs, "urls", "", "comma-separated base URLs: reads round-robin across all, writes go to the first (point the first at a router or primary); overrides -url")
	fs.DurationVar(&cfg.Duration, "duration", 10*time.Second, "workload length")
	fs.Float64Var(&cfg.QPS, "qps", 100, "offered request rate (all clients combined)")
	fs.IntVar(&cfg.Clients, "clients", 4, "independent arrival streams")
	fs.StringVar(&cfg.Arrival, "arrival", "poisson", "arrival process: poisson or bursty")
	fs.Float64Var(&cfg.BurstFactor, "burst-factor", 4, "bursty: peak rate as a multiple of -qps")
	fs.DurationVar(&cfg.BurstPeriod, "burst-period", 2*time.Second, "bursty: burst cycle length")
	fs.Float64Var(&cfg.BurstDuty, "burst-duty", 0.25, "bursty: fraction of each cycle at peak rate")
	fs.StringVar(&cfg.Mix, "mix", "solve=0.7,resist=0.2,write=0.1", "op mix: class=weight,... (solve, resist, write, sweep)")
	fs.IntVar(&cfg.SweepK, "sweep-k", 16, "pairs per sweep (resistance/batch) request")
	fs.Float64Var(&cfg.Zipf, "zipf", 1.2, "zipf exponent for node-pair skew (<=1 = uniform)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "schedule generation seed")
	fs.IntVar(&cfg.DeadlineMS, "deadline-ms", 0, "per-solve server-side deadline (0 = none)")
	fs.DurationVar(&cfg.Timeout, "timeout", 30*time.Second, "client-side HTTP timeout")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", 4096, "in-flight cap; ops beyond it are shed (counted, not sent)")
	fs.StringVar(&cfg.TraceOut, "trace-out", "", "write the generated schedule to this trace file")
	fs.StringVar(&cfg.TraceIn, "trace-in", "", "replay a recorded trace instead of generating")
	fs.StringVar(&cfg.Label, "label", "", "label for the SLO report entry")
	out := fs.String("out", "", "append the SLO report to this JSON file (BENCH_slo.json schema)")
	ciSmoke := fs.Bool("ci-smoke", false, "CI gate: exit 1 unless ops ran, zero errors, and solve p99 > 0")
	_ = fs.Parse(args)

	rep, err := runLoadgen(cfg)
	if err != nil {
		fatal(err)
	}
	printSLOReport(os.Stdout, rep)
	if *out != "" {
		if err := appendSLORun(*out, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("appended run %q to %s\n", rep.Label, *out)
	}
	if *ciSmoke {
		if msg := smokeViolation(rep); msg != "" {
			fmt.Fprintln(os.Stderr, "loadgen: ci-smoke FAILED:", msg)
			os.Exit(1)
		}
		fmt.Println("ci-smoke ok")
	}
}

// loadgenConfig is the full workload specification; runLoadgen is pure in
// it (plus the seed), so tests drive the harness directly.
type loadgenConfig struct {
	URL         string
	URLs        string // CSV; multi-endpoint mode (routed/replicated serving tiers)
	Duration    time.Duration
	QPS         float64
	Clients     int
	Arrival     string
	BurstFactor float64
	BurstPeriod time.Duration
	BurstDuty   float64
	Mix         string
	SweepK      int
	Zipf        float64
	Seed        uint64
	DeadlineMS  int
	Timeout     time.Duration
	MaxInflight int
	TraceOut    string
	TraceIn     string
	Label       string
}

// Workload op classes.
const (
	opClassSolve  = "solve"
	opClassResist = "resist"
	opClassWrite  = "write"
	opClassSweep  = "sweep"
)

// traceOp is one scheduled request: fire offset (microseconds from run
// start), op class, operands. The JSON-lines form of these is the trace
// file — small enough to commit, exact enough to replay.
type traceOp struct {
	AtUS   int64   `json:"at_us"`
	Class  string  `json:"class"`
	Client int     `json:"client"`
	U      int     `json:"u,omitempty"`
	V      int     `json:"v,omitempty"`
	W      float64 `json:"w,omitempty"`
	Pairs  []int   `json:"pairs,omitempty"` // sweep: flattened u,v pairs
}

// parseMix parses "solve=0.7,resist=0.2,write=0.1" into normalized
// cumulative weights for class drawing.
type mixEntry struct {
	class string
	cum   float64
}

func parseMix(s string) ([]mixEntry, error) {
	var entries []mixEntry
	var total float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: bad mix entry %q (want class=weight)", part)
		}
		switch k {
		case opClassSolve, opClassResist, opClassWrite, opClassSweep:
		default:
			return nil, fmt.Errorf("loadgen: unknown op class %q (want solve, resist, write, or sweep)", k)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("loadgen: bad mix weight %q", v)
		}
		total += w
		entries = append(entries, mixEntry{class: k, cum: total})
	}
	if total <= 0 {
		return nil, fmt.Errorf("loadgen: mix %q has no positive weight", s)
	}
	for i := range entries {
		entries[i].cum /= total
	}
	return entries, nil
}

func drawClass(mix []mixEntry, r float64) string {
	for _, e := range mix {
		if r < e.cum {
			return e.class
		}
	}
	return mix[len(mix)-1].class
}

// pairPicker draws zipf-skewed node pairs: a small set of "hot" nodes
// absorbs most of the traffic, as real query workloads do, which exercises
// the coalescing scheduler's same-pair dedup much harder than uniform
// draws would.
type pairPicker struct {
	rng  *rand.Rand
	zipf *rand.Zipf // nil = uniform
	n    int
}

func newPairPicker(rng *rand.Rand, n int, s float64) *pairPicker {
	p := &pairPicker{rng: rng, n: n}
	if s > 1 && n > 1 {
		p.zipf = rand.NewZipf(rng, s, 1, uint64(n-1))
	}
	return p
}

func (p *pairPicker) node() int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return p.rng.Intn(p.n)
}

func (p *pairPicker) pair() (int, int) {
	u := p.node()
	// Offset draw guarantees v != u without rejection loops.
	v := (u + 1 + p.rng.Intn(p.n-1)) % p.n
	return u, v
}

// generateSchedule builds the time-sorted open-loop schedule: each client
// is an independent arrival stream at rate QPS/Clients, merged and sorted.
func generateSchedule(cfg loadgenConfig, n int) ([]traceOp, error) {
	mix, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: clients must be positive")
	}
	if cfg.QPS <= 0 {
		return nil, fmt.Errorf("loadgen: qps must be positive")
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	picker := newPairPicker(rng, n, cfg.Zipf)
	horizon := cfg.Duration.Microseconds()
	perClient := cfg.QPS / float64(cfg.Clients)

	var ops []traceOp
	for c := 0; c < cfg.Clients; c++ {
		for at := nextArrival(cfg, rng, 0, perClient); at < horizon; at = nextArrival(cfg, rng, at, perClient) {
			op := traceOp{AtUS: at, Client: c, Class: drawClass(mix, rng.Float64())}
			switch op.Class {
			case opClassSolve, opClassResist:
				op.U, op.V = picker.pair()
			case opClassWrite:
				op.U, op.V = picker.pair()
				op.W = 0.5 + rng.Float64()
			case opClassSweep:
				k := cfg.SweepK
				if k <= 0 {
					k = 16
				}
				op.Pairs = make([]int, 0, 2*k)
				for i := 0; i < k; i++ {
					u, v := picker.pair()
					op.Pairs = append(op.Pairs, u, v)
				}
			}
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].AtUS < ops[j].AtUS })
	return ops, nil
}

// nextArrival advances one client's arrival clock from `at` (µs). Poisson
// streams draw exponential interarrivals at the client rate. Bursty
// streams are a thinned peak-rate Poisson process: candidates arrive at
// BurstFactor×rate and survive with probability 1 inside the duty window
// of each BurstPeriod cycle, and with a reduced probability outside it
// chosen so the overall mean rate stays at `rate`.
func nextArrival(cfg loadgenConfig, rng *rand.Rand, at int64, rate float64) int64 {
	expUS := func(r float64) int64 {
		us := rng.ExpFloat64() / r * 1e6
		if us < 1 {
			us = 1
		}
		if us > 3.6e9 { // cap pathological draws at one hour
			us = 3.6e9
		}
		return int64(us)
	}
	if cfg.Arrival != "bursty" {
		return at + expUS(rate)
	}
	factor := cfg.BurstFactor
	if factor <= 1 {
		return at + expUS(rate)
	}
	duty := cfg.BurstDuty
	if duty <= 0 || duty >= 1 {
		duty = 0.25
	}
	period := cfg.BurstPeriod.Microseconds()
	if period <= 0 {
		period = 2e6
	}
	// Off-window acceptance keeps the cycle mean at `rate`:
	// rate = duty·(factor·rate) + (1-duty)·offRate.
	offAccept := (1 - duty*factor) / ((1 - duty) * factor)
	if offAccept < 0 {
		offAccept = 0
	}
	for {
		at += expUS(rate * factor)
		inBurst := at%period < int64(duty*float64(period))
		if inBurst || rng.Float64() < offAccept {
			return at
		}
	}
}

func writeTrace(path string, ops []traceOp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range ops {
		if err := enc.Encode(&ops[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) ([]traceOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []traceOp
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var op traceOp
		if err := json.Unmarshal([]byte(line), &op); err != nil {
			return nil, fmt.Errorf("loadgen: trace %s: %w", path, err)
		}
		ops = append(ops, op)
	}
	return ops, sc.Err()
}

// sloClassReport is one op class's outcome: counts and the latency digest
// over successful requests (seconds).
type sloClassReport struct {
	Ops      uint64      `json:"ops"`
	OK       uint64      `json:"ok"`
	Errors   uint64      `json:"errors"`
	Timeouts uint64      `json:"timeouts"`
	Latency  obs.Summary `json:"latency_seconds"`
}

// sloReport is one loadgen run, the unit committed to BENCH_slo.json.
type sloReport struct {
	Label       string                    `json:"label,omitempty"`
	When        string                    `json:"when"`
	URL         string                    `json:"url"`
	Arrival     string                    `json:"arrival"`
	QPS         float64                   `json:"target_qps"`
	Clients     int                       `json:"clients"`
	DurationSec float64                   `json:"duration_seconds"`
	Mix         string                    `json:"mix"`
	Zipf        float64                   `json:"zipf"`
	Seed        uint64                    `json:"seed"`
	TotalOps    uint64                    `json:"total_ops"`
	OK          uint64                    `json:"ok"`
	Errors      uint64                    `json:"errors"`
	Timeouts    uint64                    `json:"timeouts"`
	Shed        uint64                    `json:"shed"`
	AchievedQPS float64                   `json:"achieved_qps"`
	Classes     map[string]sloClassReport `json:"classes"`
}

// classTracker accumulates one op class's outcomes during the run.
type classTracker struct {
	ops, ok, errors, timeouts obs.Counter
	lat                       *obs.Histogram
}

// runLoadgen executes the workload and digests the outcome. It is the
// testable core of cmdLoadgen: everything observable flows through the
// returned report.
func runLoadgen(cfg loadgenConfig) (*sloReport, error) {
	// Multi-endpoint mode targets a replicated tier directly: reads
	// round-robin across every listed endpoint, writes always go to the
	// first (a router forwards them to the primary; a primary applies them).
	bases := []string{strings.TrimRight(cfg.URL, "/")}
	if cfg.URLs != "" {
		bases = bases[:0]
		for _, u := range strings.Split(cfg.URLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				bases = append(bases, strings.TrimRight(u, "/"))
			}
		}
		if len(bases) == 0 {
			return nil, fmt.Errorf("loadgen: -urls names no endpoints")
		}
	}
	base := bases[0]
	client := &http.Client{Timeout: cfg.Timeout}

	// Node count bounds the operand space; fetched from the live /stats.
	n, err := fetchNodeCount(client, base)
	if err != nil {
		return nil, err
	}

	var ops []traceOp
	if cfg.TraceIn != "" {
		if ops, err = readTrace(cfg.TraceIn); err != nil {
			return nil, err
		}
	} else if ops, err = generateSchedule(cfg, n); err != nil {
		return nil, err
	}
	if cfg.TraceOut != "" {
		if err := writeTrace(cfg.TraceOut, ops); err != nil {
			return nil, err
		}
	}

	trackers := map[string]*classTracker{
		opClassSolve:  {lat: obs.NewHistogram(obs.ScaleSeconds)},
		opClassResist: {lat: obs.NewHistogram(obs.ScaleSeconds)},
		opClassWrite:  {lat: obs.NewHistogram(obs.ScaleSeconds)},
		opClassSweep:  {lat: obs.NewHistogram(obs.ScaleSeconds)},
	}
	maxInflight := cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = 4096
	}
	slots := make(chan struct{}, maxInflight)
	var shed obs.Counter
	var wg sync.WaitGroup

	start := time.Now()
	for i := range ops {
		op := &ops[i]
		// Open loop: wait for the scheduled instant, never for the server.
		if d := time.Duration(op.AtUS)*time.Microsecond - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		tr := trackers[op.Class]
		if tr == nil {
			continue // unknown class in a hand-edited trace; skip
		}
		select {
		case slots <- struct{}{}:
		default:
			shed.Inc() // in-flight cap reached: shed, do not queue
			continue
		}
		target := bases[i%len(bases)]
		if op.Class == opClassWrite {
			target = base
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			executeOp(client, target, cfg, op, n, tr)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &sloReport{
		Label:       cfg.Label,
		When:        time.Now().UTC().Format(time.RFC3339),
		URL:         strings.Join(bases, ","),
		Arrival:     cfg.Arrival,
		QPS:         cfg.QPS,
		Clients:     cfg.Clients,
		DurationSec: cfg.Duration.Seconds(),
		Mix:         cfg.Mix,
		Zipf:        cfg.Zipf,
		Seed:        cfg.Seed,
		Shed:        shed.Value(),
		Classes:     make(map[string]sloClassReport, len(trackers)),
	}
	for class, tr := range trackers {
		if tr.ops.Value() == 0 {
			continue
		}
		cr := sloClassReport{
			Ops:      tr.ops.Value(),
			OK:       tr.ok.Value(),
			Errors:   tr.errors.Value(),
			Timeouts: tr.timeouts.Value(),
			Latency:  tr.lat.Summarize(),
		}
		rep.Classes[class] = cr
		rep.TotalOps += cr.Ops
		rep.OK += cr.OK
		rep.Errors += cr.Errors
		rep.Timeouts += cr.Timeouts
	}
	if s := elapsed.Seconds(); s > 0 {
		rep.AchievedQPS = float64(rep.TotalOps) / s
	}
	return rep, nil
}

// executeOp sends one scheduled request and records its outcome. Latency is
// recorded for successful (2xx) responses only, so the quantiles measure
// service time, not error fast-paths. A server-side 408 and a client-side
// timeout both count as timeouts; everything else non-2xx is an error.
func executeOp(client *http.Client, base string, cfg loadgenConfig, op *traceOp, n int, tr *classTracker) {
	tr.ops.Inc()
	var (
		status int
		err    error
	)
	start := time.Now()
	switch op.Class {
	case opClassSolve:
		b := make([]float64, n)
		if op.U < n && op.V < n {
			b[op.U], b[op.V] = 1, -1
		} else {
			b[0], b[n-1] = 1, -1
		}
		status, err = postJSON(client, base+"/solve", solveRequest{B: b, DeadlineMS: cfg.DeadlineMS})
	case opClassResist:
		status, err = get(client, fmt.Sprintf("%s/resistance?u=%d&v=%d", base, op.U%n, op.V%n))
	case opClassWrite:
		status, err = postJSON(client, base+"/edges", edgesRequest{
			Edges: []edgeJSON{{U: op.U % n, V: op.V % n, W: op.W}},
		})
	case opClassSweep:
		pairs := make([]edgeJSON, 0, len(op.Pairs)/2)
		for i := 0; i+1 < len(op.Pairs); i += 2 {
			pairs = append(pairs, edgeJSON{U: op.Pairs[i] % n, V: op.Pairs[i+1] % n})
		}
		status, err = postJSON(client, base+"/resistance/batch", batchResistanceRequest{Pairs: pairs})
	}
	dur := time.Since(start)
	switch {
	case err != nil:
		tr.timeouts.Inc() // client-side failure: timeout or connection loss
	case status == http.StatusRequestTimeout:
		tr.timeouts.Inc()
	case status >= 200 && status < 300:
		tr.ok.Inc()
		tr.lat.Observe(dur.Nanoseconds())
	default:
		tr.errors.Inc()
	}
}

func get(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	drain(resp)
	return resp.StatusCode, nil
}

func postJSON(client *http.Client, url string, body any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	drain(resp)
	return resp.StatusCode, nil
}

func drain(resp *http.Response) {
	const limit = 1 << 20
	buf := make([]byte, 4096)
	var total int
	for total < limit {
		m, err := resp.Body.Read(buf)
		total += m
		if err != nil {
			break
		}
	}
	resp.Body.Close()
}

func fetchNodeCount(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return 0, fmt.Errorf("loadgen: %s/stats unreachable: %w", base, err)
	}
	defer resp.Body.Close()
	var st struct {
		Nodes int `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("loadgen: decode /stats: %w", err)
	}
	if st.Nodes <= 1 {
		return 0, fmt.Errorf("loadgen: server reports %d nodes", st.Nodes)
	}
	return st.Nodes, nil
}

func printSLOReport(w *os.File, rep *sloReport) {
	fmt.Fprintf(w, "loadgen: %s arrival, target %.0f qps x %ds, %d clients, mix %s\n",
		rep.Arrival, rep.QPS, int(rep.DurationSec), rep.Clients, rep.Mix)
	fmt.Fprintf(w, "  %d ops (%.0f qps achieved), %d ok, %d errors, %d timeouts, %d shed\n",
		rep.TotalOps, rep.AchievedQPS, rep.OK, rep.Errors, rep.Timeouts, rep.Shed)
	classes := make([]string, 0, len(rep.Classes))
	for c := range rep.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	relErr := 0.0
	for _, c := range classes {
		cr := rep.Classes[c]
		fmt.Fprintf(w, "  %-7s %6d ops  p50 %8.3fms  p90 %8.3fms  p99 %8.3fms  p999 %8.3fms  max %8.3fms\n",
			c, cr.Ops, cr.Latency.P50*1e3, cr.Latency.P90*1e3, cr.Latency.P99*1e3,
			cr.Latency.P999*1e3, cr.Latency.Max*1e3)
		if cr.Latency.RelErr > relErr {
			relErr = cr.Latency.RelErr
		}
	}
	if relErr > 0 {
		fmt.Fprintf(w, "  quantiles interpolated from log-linear buckets; error <= %.1f%% relative\n", relErr*100)
	}
}

// sloFile is the BENCH_slo.json shape: a schema tag and an append-only run
// list.
type sloFile struct {
	Schema int          `json:"schema"`
	Runs   []*sloReport `json:"runs"`
}

func appendSLORun(path string, rep *sloReport) error {
	file := sloFile{Schema: 1}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("loadgen: %s exists but is not a BENCH_slo file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Runs = append(file.Runs, rep)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// smokeViolation checks the CI smoke-gate invariants; empty string = pass.
func smokeViolation(rep *sloReport) string {
	if rep.TotalOps == 0 {
		return "no operations executed"
	}
	if rep.Errors > 0 || rep.Timeouts > 0 {
		return fmt.Sprintf("%d errors, %d timeouts (want 0)", rep.Errors, rep.Timeouts)
	}
	solve, ok := rep.Classes[opClassSolve]
	if ok && !(solve.Latency.P99 > 0) {
		return "solve p99 is zero"
	}
	return ""
}
