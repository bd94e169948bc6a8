package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a size that runs in about a second.
func tiny(w workload) workload {
	if w.stream != nil {
		s := *w.stream
		s.scale = 0.02
		w.stream = &s
	} else {
		s := *w.serve
		s.scale, s.rate, s.warmup, s.setups = 0.05, 60, 100*time.Millisecond, 2
		w.serve = &s
	}
	return w
}

// Every workload, run tiny in process, passes its checks and emits every
// metric BENCHMARK.json lists, with its unit, in both modes; the last line
// of output is the JSON result with exactly its four keys.
func TestSmokeAllWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		w := tiny(w)
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 3, window: 300 * time.Millisecond, trace: traced, tmpDir: t.TempDir()}
			s, err := w.run(context.Background(), rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			rep := summarize(w, rc, s)
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d attempted, failures %v",
					w.name, traced, rep.Correct, rep.Attempted, rep.Failures)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, rep.Metrics[m.Name].Value)
					}
				}
			}

			var out bytes.Buffer
			printReport(&out, rep)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil ||
				last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line has keys %v", w.name, keys(last))
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
