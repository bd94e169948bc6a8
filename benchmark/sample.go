package main

import (
	"fmt"
	"runtime"
	"time"
)

// sample holds a run's raw measurements; every statistic is computed from
// them, so percentiles are exact over the run's raw values.
type sample struct {
	Setup     []float64 // seconds, one per set-up
	Op        []float64 // milliseconds, one per measured op of the workload
	Heap      []float64 // MB live after set-up or warm-up
	Kappa     float64   // of the final graphs
	Density   float64   // of the final graphs
	Attempted int       // ops and checks
	Failed    int
	Failures  []string // the first few failures, described
	Format    string   // storage format of the frozen operators
	Layers    layers   // raw per-layer values by key (see perLayer)
	Traced    []tracedOp
}

// maxFailureNotes bounds the failure descriptions kept verbatim; every
// failure is still counted.
const maxFailureNotes = 20

// fail counts one failed op or check.
func (s *sample) fail(format string, args ...any) {
	s.Failed++
	if len(s.Failures) < maxFailureNotes {
		s.Failures = append(s.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check, failing it unless ok.
func (s *sample) check(ok bool, format string, args ...any) {
	s.Attempted++
	if !ok {
		s.fail(format, args...)
	}
}

// layers maps a raw per-layer key to its samples. A layer a workload never
// reaches has no samples and reads 0.
type layers map[string][]float64

func (l layers) add(key string, v float64) { l[key] = append(l[key], v) }

func (l layers) p(key string, pct float64) float64 {
	if len(l[key]) == 0 {
		return 0
	}
	return percentile(l[key], pct)
}

func (l layers) mean(key string) float64 {
	if len(l[key]) == 0 {
		return 0
	}
	return mean(l[key])
}

func (l layers) sum(key string) float64 {
	var s float64
	for _, v := range l[key] {
		s += v
	}
	return s
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / 1e6 }

// liveHeapMB collects garbage and returns the bytes still reachable. The
// second collection frees what sync.Pools kept through the first, whose
// size depends on how many requests happened to overlap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcWindow records garbage-collector activity between start and stop.
type gcWindow struct {
	cycles  uint32
	pauseNs uint64
}

func startGC() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{ms.NumGC, ms.PauseTotalNs}
}

func (g gcWindow) stop(l layers) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.add("go.gc_cycles", float64(ms.NumGC-g.cycles))
	l.add("go.gc_pause_ms", float64(ms.PauseTotalNs-g.pauseNs)/1e6)
}
