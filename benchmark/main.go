// Command benchmark is ingrass's noise-aware benchmark. Each invocation
// runs one workload, checks its outputs, prints every metric by name, unit
// and sample count, and ends with one line of JSON. Run it from the
// repository root:
//
//	sh benchmark/run.sh -workload stream-mesh -seed 1 -seconds 20 -trace 0
//	sh benchmark/run.sh -workload serve-read -trace 1 -out runs.jsonl
//	sh benchmark/run.sh -compare before.jsonl after.jsonl
//
// README.md describes the workloads, the metrics and the noise policy.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"ingrass/internal/vecmath"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: stream-mesh, stream-social, serve-read or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed the order of the streamed batches and the request operands are drawn from")
	secs := flag.Float64("seconds", 20, "measured seconds per run")
	traceMode := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "append the run's full report as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare the runs of two report files: -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	w, err := lookupWorkload(*workloadName)
	if err != nil {
		fatal(err)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if !(*secs > 0) {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	rc := runConfig{
		seed: *seed, window: time.Duration(*secs * float64(time.Second)), trace: *traceMode == 1,
		tmpDir: filepath.Join(".bench_build", "tmp"),
	}
	s, err := w.run(context.Background(), rc)
	if err != nil {
		fatal(err)
	}
	rep := summarize(w, rc, s)
	if *out != "" {
		rep.Env = environment(rep)
		if err := appendReport(*out, rep); err != nil {
			fatal(err)
		}
	}
	printReport(os.Stdout, rep)
	if !rep.Correct {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, the contract with tools.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a run's full record, as -out stores it.
type report struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Env      map[string]any `json:"env,omitempty"`
	result
	Failures  []string       `json:"failures,omitempty"`
	Samples   map[string]int `json:"samples"`
	Order     []string       `json:"-"`
	Breakdown []breakdownRow `json:"breakdown,omitempty"`
	format    string
}

func summarize(w workload, rc runConfig, s *sample) *report {
	rep := &report{
		Workload: w.name, Seed: rc.seed, Seconds: rc.window.Seconds(), Trace: rc.trace,
		result:   result{Attempted: s.Attempted, Failed: s.Failed, Metrics: map[string]metricValue{}},
		Failures: s.Failures, Samples: map[string]int{}, format: s.Format,
	}
	l := layers{}
	for k, v := range s.Layers {
		l[k] = v
	}
	addTraced(l, s.Traced)
	ms := endToEnd
	if rc.trace {
		ms = perLayer
		rep.Breakdown = breakdown(s.Traced)
	}
	for _, m := range ms {
		v, n := m.value(s, l)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s has no value (%v)", m.name, v))
			v = 0
		}
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		rep.Samples[m.name] = n
		rep.Order = append(rep.Order, m.name)
	}
	rep.Attempted = max(rep.Attempted, 1)
	rep.Correct = rep.Failed == 0
	return rep
}

func printReport(out io.Writer, rep *report) {
	fmt.Fprintf(out, "workload %s  seed %d  %g s measured  GOMAXPROCS %d  traced %v\n",
		rep.Workload, rep.Seed, rep.Seconds, runtime.GOMAXPROCS(0), rep.Trace)
	fmt.Fprintf(out, "%-34s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, name := range rep.Order {
		m := rep.Metrics[name]
		fmt.Fprintf(out, "%-34s %14.6g %-6s %8d\n", name, m.Value, m.Unit, rep.Samples[name])
	}
	for _, row := range rep.Breakdown {
		fmt.Fprintf(out, "%s %s (%d ops, mean %.3f ms):", row.Class, row.Band, row.Ops, row.Latency)
		for _, p := range partNames[row.Class] {
			fmt.Fprintf(out, " %s %.3f", p, row.Parts[p])
		}
		attrs := slices.Sorted(maps.Keys(row.Attrs))
		for _, k := range attrs {
			fmt.Fprintf(out, "; %s %.4g", k, row.Attrs[k])
		}
		fmt.Fprintln(out)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(line))
}

// environment records what the numbers depend on besides the code.
func environment(rep *report) map[string]any {
	return map[string]any{
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"num_cpu":         runtime.NumCPU(),
		"cpu":             cpuModel(),
		"simd":            vecmath.SIMDActive(),
		"operator_format": rep.format,
		"time":            time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func appendReport(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
