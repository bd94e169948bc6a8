package main

// metric is one reported number: its name and unit as BENCHMARK.json lists
// them, and how it is computed from a run's raw samples. value returns
// the number and how many samples it rests on.
type metric struct {
	name, unit string
	value      func(s *sample, l layers) (float64, int)
}

func pct(p float64, f func(*sample) []float64) func(*sample, layers) (float64, int) {
	return func(s *sample, _ layers) (float64, int) { xs := f(s); return percentile(xs, p), len(xs) }
}

// End-to-end metrics, measured with tracing off. The op is what a user of
// the workload waits on: one AddEdges batch on stream-*, one read on
// serve-read, one durable write on serve-mixed. Its p10 is the end-to-end
// timing and its p50 and p90 are per-layer diagnostics: on a shared 2-vCPU
// machine the host's slow spells, seconds to minutes long, cover about half
// of some runs, so the median flips between a fast and a slow mode (reads
// spread 25% between runs of identical work, against 2.6% for the p10).
var endToEnd = []metric{
	{"setup_s", "s", pct(50, func(s *sample) []float64 { return s.Setup })},
	{"op_p10_ms", "ms", pct(10, func(s *sample) []float64 { return s.Op })},
	{"live_heap_mb", "MB", pct(50, func(s *sample) []float64 { return s.Heap })},
	{"kappa_final", "ratio", func(s *sample, _ layers) (float64, int) { return s.Kappa, 1 }},
	{"density_final", "ratio", func(s *sample, _ layers) (float64, int) { return s.Density, 1 }},
}

// Layer metric constructors over a raw per-layer key.
func lp(key string, p float64) func(*sample, layers) (float64, int) {
	return func(_ *sample, l layers) (float64, int) { return l.p(key, p), len(l[key]) }
}

func lmean(key string) func(*sample, layers) (float64, int) {
	return func(_ *sample, l layers) (float64, int) { return l.mean(key), len(l[key]) }
}

func lsum(key string) func(*sample, layers) (float64, int) {
	return func(_ *sample, l layers) (float64, int) { return l.sum(key), len(l[key]) }
}

// Per-layer metrics, measured in a traced run. Setup, kernel, factorize
// and core-update layers are timed by direct calls; read and write layers
// come from the spans of traced requests. A layer a workload never reaches
// reads 0.
var perLayer = []metric{
	{"diag.op_p50_ms", "ms", pct(50, func(s *sample) []float64 { return s.Op })},
	{"diag.op_p90_ms", "ms", pct(90, func(s *sample) []float64 { return s.Op })},
	{"grass.sparsify_s", "s", lp("grass.sparsify_s", 50)},
	{"krylov.embed_s", "s", lp("krylov.embed_s", 50)},
	{"lrd.build_s", "s", lp("lrd.build_s", 50)},
	{"lrd.levels", "count", lp("lrd.levels", 50)},
	{"sketch.new_s", "s", lp("sketch.new_s", 50)},
	{"sketch.entries", "count", lp("sketch.entries", 50)},
	{"core.setup_self_s", "s", lp("core.setup_self_s", 50)},
	{"core.estimate_ns_per_edge", "ns", lp("core.estimate_ns_per_edge", 50)},
	{"core.update_ns_per_edge", "ns", lp("core.update_ns_per_edge", 50)},
	{"core.included", "count", lp("core.included", 50)},
	{"core.merged", "count", lp("core.merged", 50)},
	{"core.redistributed", "count", lp("core.redistributed", 50)},
	{"kernel.spmv_g_us", "us", lp("kernel.spmv_g_us", 50)},
	{"kernel.spmv_h_us", "us", lp("kernel.spmv_h_us", 50)},
	{"precond.factorize_ms", "ms", lp("precond.factorize_ms", 50)},
	{"service.read_self_p50_ms", "ms", lp("service.read_self_ms", 50)},
	{"batch.queue_wait_p50_ms", "ms", lp("batch.queue_wait_ms", 50)},
	{"batch.queue_wait_p90_ms", "ms", lp("batch.queue_wait_ms", 90)},
	{"batch.exec_self_p50_ms", "ms", lp("batch.exec_self_ms", 50)},
	{"batch.block_width_mean", "count", lmean("read.width")},
	{"solver.outer_self_p50_ms", "ms", lp("solver.outer_self_ms", 50)},
	{"solver.outer_iters_mean", "count", lmean("read.iterations")},
	{"precond.inner_p50_ms", "ms", lp("precond.inner_ms", 50)},
	{"precond.inner_uses_mean", "count", lmean("read.inner_uses")},
	{"serve.read_p50_ms", "ms", lp("serve.read_ms", 50)},
	{"serve.read_p90_ms", "ms", lp("serve.read_ms", 90)},
	{"service.write_self_p50_ms", "ms", lp("service.write_self_ms", 50)},
	{"service.write_self_p90_ms", "ms", lp("service.write_self_ms", 90)},
	{"wal.append_self_p50_ms", "ms", lp("wal.append_self_ms", 50)},
	{"wal.fsync_p50_ms", "ms", lp("wal.fsync_ms", 50)},
	{"wal.fsync_p90_ms", "ms", lp("wal.fsync_ms", 90)},
	{"wal.bytes_per_write", "bytes", lmean("write.bytes")},
	{"serve.write_p50_ms", "ms", lp("serve.write_ms", 50)},
	{"serve.write_p90_ms", "ms", lp("serve.write_ms", 90)},
	{"service.generations", "count", lp("service.generations", 50)},
	{"go.gc_cycles", "count", lsum("go.gc_cycles")},
	{"go.gc_pause_ms", "ms", lsum("go.gc_pause_ms")},
	{"loadgen.late_p99_ms", "ms", lp("loadgen.late_ms", 99)},
	{"loadgen.inflight_max", "count", lp("loadgen.inflight_max", 100)},
	{"trace.dropped_spans", "count", func(_ *sample, l layers) (float64, int) {
		return l.sum("read.dropped_spans") + l.sum("write.dropped_spans"),
			len(l["read.dropped_spans"]) + len(l["write.dropped_spans"])
	}},
	{"trace.overhead_op_p50_pct", "%", lp("trace.overhead_op_p50_pct", 50)},
	{"trace.read_unattributed_p50_pct", "%", lp("read.unattributed_pct", 50)},
	{"trace.write_unattributed_p50_pct", "%", lp("write.unattributed_pct", 50)},
}
