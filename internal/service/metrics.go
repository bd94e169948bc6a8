package service

import (
	"math"

	"ingrass/internal/kernel"
	"ingrass/internal/obs"
	"ingrass/internal/solver"
)

// The engine's exposition wiring. The obs registry is the single source of
// truth for every number the process reports: counters that already live as
// engine atomics are bridged as CounterFunc/GaugeFunc reads over those same
// atomics (so the JSON stats view and a Prometheus scrape can never
// disagree), and the latency/shape histograms are created here and recorded
// into by the hot paths through nil-safe handles.
//
// Metric naming follows the conventions DESIGN.md's Observability section
// documents: one `ingrass_` namespace, `_total` on counters, base-unit
// suffixes (`_seconds`) on histograms, and label values drawn only from
// small closed vocabularies. The snapshot generation is a gauge, never a
// label.

// initHistograms creates the engine-owned histograms in reg and installs
// the batch scheduler's block-fill hook. It must run before the scheduler
// is constructed (the hook rides in batch.Options).
func (e *Engine) initHistograms(reg *obs.Registry) {
	e.stats.solveDur = reg.Histogram("ingrass_solve_duration_seconds",
		"wall-clock latency of single-RHS Laplacian solves", obs.ScaleSeconds)
	e.stats.blockDur = reg.Histogram("ingrass_solve_block_duration_seconds",
		"wall-clock latency of blocked multi-RHS solve executions", obs.ScaleSeconds)
	e.stats.solveIterH = reg.Histogram("ingrass_solve_iterations",
		"CG iterations per solve column", obs.ScaleNone)
	blockFill := reg.Histogram("ingrass_batch_block_fill",
		"right-hand sides per executed blocked group", obs.ScaleNone)
	e.opts.Batch.OnGroup = func(w int) { blockFill.Observe(int64(w)) }
	e.stats.spmvDurCSR = reg.Histogram("ingrass_spmv_duration_seconds",
		"wall-clock latency of frozen-operator SpMV applications by storage format",
		obs.ScaleSeconds, obs.Label{Key: "format", Value: "csr"})
	e.stats.spmvDurSELL = reg.Histogram("ingrass_spmv_duration_seconds",
		"wall-clock latency of frozen-operator SpMV applications by storage format",
		obs.ScaleSeconds, obs.Label{Key: "format", Value: "sell"})
	e.stats.maintRebuildDur = reg.Histogram("ingrass_maintenance_rebuild_duration_seconds",
		"wall-clock latency of offline setup-basis rebuilds (no engine lock held)", obs.ScaleSeconds)
	e.stats.maintSwapDur = reg.Histogram("ingrass_maintenance_swap_duration_seconds",
		"in-lock latency of setup-basis adoptions on the writer goroutine", obs.ScaleSeconds)
}

// registerBridges exposes the engine's existing atomic counters through reg.
// It must run after the scheduler exists (the batch bridges sample it).
func (e *Engine) registerBridges(reg *obs.Registry) {
	ctr := func(name, help string, load func() uint64, labels ...obs.Label) {
		reg.CounterFunc(name, help, func() float64 { return float64(load()) }, labels...)
	}
	ctr("ingrass_solves_total", "completed Laplacian solve columns", e.stats.solves.Load)
	ctr("ingrass_solve_iterations_total", "cumulative CG iterations", e.stats.solveIters.Load)
	ctr("ingrass_solve_failures_total", "solves by failure mode",
		e.stats.solveNoConv.Load, obs.Label{Key: "mode", Value: "no_convergence"})
	ctr("ingrass_solve_failures_total", "solves by failure mode",
		e.stats.solveDeadline.Load, obs.Label{Key: "mode", Value: "deadline_exceeded"})
	ctr("ingrass_solve_failures_total", "solves by failure mode",
		e.stats.solveCancel.Load, obs.Label{Key: "mode", Value: "cancelled"})
	ctr("ingrass_precond_builds_total", "preconditioner factorizations built", e.stats.precondBuilds.Load)
	ctr("ingrass_precond_reuses_total", "solves that reused a cached factorization", e.stats.precondReuses.Load)
	ctr("ingrass_resistance_queries_total", "effective-resistance queries", e.stats.resistQueries.Load)
	ctr("ingrass_cond_queries_total", "condition-number estimates", e.stats.condQueries.Load)
	ctr("ingrass_sparsifier_exports_total", "sparsifier exports", e.stats.exports.Load)
	ctr("ingrass_write_requests_total", "enqueued write requests", e.stats.writeRequests.Load)
	ctr("ingrass_write_errors_total", "write requests that failed validation or application", e.stats.writeErrors.Load)
	ctr("ingrass_flushes_total", "applied write batches", e.stats.flushes.Load)
	ctr("ingrass_flushed_edges_total", "edges carried by applied batches",
		e.stats.flushedAdds.Load, obs.Label{Key: "op", Value: "add"})
	ctr("ingrass_flushed_edges_total", "edges carried by applied batches",
		e.stats.flushedDeletes.Load, obs.Label{Key: "op", Value: "delete"})
	ctr("ingrass_wal_appends_total", "batches appended to the write-ahead log", e.stats.walAppends.Load)
	ctr("ingrass_wal_bytes_total", "framed bytes appended to the write-ahead log", e.stats.walBytes.Load)
	ctr("ingrass_wal_errors_total", "failed WAL appends (durability degraded until checkpoint)", e.stats.walErrors.Load)
	ctr("ingrass_checkpoints_total", "completed checkpoints", e.stats.checkpoints.Load)
	ctr("ingrass_kernel_forks_total", "fork-join dispatches into the shared kernel pools", kernel.SharedForks)

	ctr("ingrass_maintenance_triggers_total", "maintenance rebuilds triggered by signal",
		e.stats.maintTrigIters.Load, obs.Label{Key: "reason", Value: "iterations"})
	ctr("ingrass_maintenance_triggers_total", "maintenance rebuilds triggered by signal",
		e.stats.maintTrigCond.Load, obs.Label{Key: "reason", Value: "cond"})
	ctr("ingrass_maintenance_triggers_total", "maintenance rebuilds triggered by signal",
		e.stats.maintTrigChurn.Load, obs.Label{Key: "reason", Value: "churn"})
	ctr("ingrass_maintenance_triggers_total", "maintenance rebuilds triggered by signal",
		e.stats.maintTrigManual.Load, obs.Label{Key: "reason", Value: "manual"})
	ctr("ingrass_maintenance_rebuilds_total", "background setup-basis swaps published", e.stats.maintRebuilds.Load)
	ctr("ingrass_maintenance_failures_total", "background rebuilds aborted at any stage", e.stats.maintFailures.Load)
	ctr("ingrass_generations_evicted_total", "snapshots evicted by the post-swap GC pressure policy", e.stats.gensEvicted.Load)

	for i, name := range decisionNames {
		ctr("ingrass_filter_decisions_total", "sparsifier filter decisions on new and deleted edges, by outcome",
			e.stats.decisions[i].Load, obs.Label{Key: "decision", Value: name})
	}
	reg.GaugeFunc("ingrass_sparsifier_filter_level", "LRD level the similarity filter of the newest generation uses",
		func() float64 { return float64(e.stats.filterLevel.Load()) })
	reg.GaugeFunc("ingrass_sparsifier_density", "off-tree density of the newest generation's sparsifier relative to its original graph",
		func() float64 { return math.Float64frombits(e.stats.density.Load()) })
	reg.GaugeFunc("ingrass_generation", "snapshot generation currently served",
		func() float64 { return float64(e.stats.generation.Load()) })
	reg.GaugeFunc("ingrass_last_checkpoint_generation", "generation covered by the newest checkpoint",
		func() float64 { return float64(e.stats.lastCheckpoint.Load()) })
	reg.GaugeFunc("ingrass_write_queue_depth", "write requests awaiting a flush",
		func() float64 { return float64(e.stats.queueDepth.Load()) })
	reg.GaugeFunc("ingrass_maintenance_state", "controller state (0=disabled 1=idle 2=rebuilding 3=swapping 4=cooldown)",
		func() float64 { return float64(e.stats.maintState.Load()) })
	reg.GaugeFunc("ingrass_maintenance_last_generation", "generation published by the newest basis swap",
		func() float64 { return float64(e.stats.maintLastGen.Load()) })
	reg.GaugeFunc("ingrass_maintenance_target_cond", "target condition number of the current setup basis (density knob position)",
		func() float64 { return math.Float64frombits(e.stats.maintTargetCond.Load()) })
	reg.GaugeFunc("ingrass_maintenance_iteration_trend", "mean CG iterations per solve over the latest evaluation window",
		func() float64 { return math.Float64frombits(e.stats.maintIterTrend.Load()) })
	reg.GaugeFunc("ingrass_maintenance_kappa", "latest periodic condition-number estimate",
		func() float64 { return math.Float64frombits(e.stats.maintKappa.Load()) })

	// Operator build info: one series per storage format, 1 on the format the
	// served generation froze (build-info idiom — the label carries the value).
	opFmt := func(want solver.Format) func() float64 {
		return func() float64 {
			if solver.Format(e.stats.opFormat.Load()) == want {
				return 1
			}
			return 0
		}
	}
	reg.GaugeFunc("ingrass_operator_format", "storage format of the served generation's frozen operators (1 = active)",
		opFmt(solver.FormatCSR), obs.Label{Key: "format", Value: "csr"})
	reg.GaugeFunc("ingrass_operator_format", "storage format of the served generation's frozen operators (1 = active)",
		opFmt(solver.FormatSELL), obs.Label{Key: "format", Value: "sell"})
	reg.GaugeFunc("ingrass_operator_sell_padding_ratio", "padding fraction of the SELL-frozen operator (0 under CSR)",
		func() float64 { return math.Float64frombits(e.stats.opPadding.Load()) })
	reg.GaugeFunc("ingrass_precond_factored", "1 when the served generation preconditions with an exact LDLT factor of H, 0 when it uses the Jacobi diagonal of G",
		func() float64 {
			if e.stats.precondFactored.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("ingrass_precond_factor_nnz", "entries stored in the served generation's LDLT factor of H (0 in the Jacobi regime)",
		func() float64 { return float64(e.stats.precondFactorNNZ.Load()) })
	reg.GaugeFunc("ingrass_operator_arena_reserved_bytes", "arena bytes reserved by the served generation's frozen operators",
		func() float64 { return float64(e.stats.arenaBytes.Load()) })

	ctr("ingrass_batch_groups_total", "executed blocked multi-RHS groups",
		func() uint64 { return e.sched.Stats().BatchesFormed })
	ctr("ingrass_batch_columns_total", "right-hand sides across all blocked groups",
		func() uint64 { return e.sched.Stats().ColumnsTotal })
	ctr("ingrass_batch_requests_coalesced_total", "requests that shared a group with others",
		func() uint64 { return e.sched.Stats().RequestsCoalesced })
	reg.GaugeFunc("ingrass_batch_queue_depth", "requests admitted to the scheduler but not yet executed",
		func() float64 { return float64(e.sched.Stats().QueueDepth) })
}
