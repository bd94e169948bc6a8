package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory or its
// parent, so the benchmark works from the repository root and from its
// own directory.
func readBenchmarkFile() (*benchmarkFile, error) {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found here or in the parent directory")
}

// readReports reads a file of -out report lines, keeping untraced runs.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			reps = append(reps, r)
		}
	}
	return reps, sc.Err()
}

// runCompare compares, for every workload run in both files, the median of
// each end-to-end metric over the runs in a with that over the runs in b
// (the mean of the middle two for an even count).
// A change worse than the metric's bound is "worse", better by more than
// the bound is "better", anything else "within-bound". spread is each
// side's quartile distance over its median.
func runCompare(w io.Writer, a, b string) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	ra, err := readReports(a)
	if err != nil {
		return err
	}
	rb, err := readReports(b)
	if err != nil {
		return err
	}
	values := func(reps []report, workload, metric string) []float64 {
		var xs []float64
		for _, r := range reps {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-14s %-14s %4s %12s %7s %4s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "n_a", "median_a", "spread", "n_b", "median_b", "spread", "change", "bound", "verdict")
	for _, wl := range workloads() {
		for _, m := range bf.EndToEnd {
			va, vb := values(ra, wl.name, m.Name), values(rb, wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within-bound"
			switch {
			case worse > m.Bound:
				verdict = "worse"
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-14s %4d %12.6g %6.1f%% %4d %12.6g %6.1f%% %+7.1f%% %5.1f%%  %s\n",
				wl.name, m.Name, len(va), ma, 100*quartileSpread(va), len(vb), mb, 100*quartileSpread(vb),
				100*change, 100*m.Bound, verdict)
		}
	}
	return nil
}
