package service

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"ingrass/internal/graph"
	"ingrass/internal/solver"
	"ingrass/internal/vecmath"
	"ingrass/internal/wal"
)

// --- trigger policy (pure function) ---------------------------------------

func TestEvaluateTriggerPolicy(t *testing.T) {
	m := MaintenanceOptions{
		IterTarget:    40,
		MinSolves:     8,
		CondThreshold: 100,
		ChurnFactor:   0.5,
	}
	cases := []struct {
		name string
		s    healthSample
		want MaintReason
		mean float64
	}{
		{"healthy", healthSample{Solves: 10, Iters: 200, BasisEdges: 100}, MaintNone, 20},
		{"iters over target", healthSample{Solves: 10, Iters: 500, BasisEdges: 100}, MaintReasonIters, 50},
		{"iters ignored under MinSolves", healthSample{Solves: 4, Iters: 400, BasisEdges: 100}, MaintNone, 100},
		{"cond over threshold", healthSample{Solves: 10, Iters: 200, Kappa: 150, BasisEdges: 100}, MaintReasonCond, 20},
		{"churn over factor", healthSample{Solves: 10, Iters: 200, Churn: 50, BasisEdges: 100}, MaintReasonChurn, 20},
		{"churn just under", healthSample{Solves: 10, Iters: 200, Churn: 49, BasisEdges: 100}, MaintNone, 20},
		// Precedence: iterations beat cond beat churn when several trip.
		{"iters beats cond", healthSample{Solves: 10, Iters: 500, Kappa: 150, Churn: 99, BasisEdges: 100}, MaintReasonIters, 50},
		{"cond beats churn", healthSample{Solves: 10, Iters: 200, Kappa: 150, Churn: 99, BasisEdges: 100}, MaintReasonCond, 20},
		{"no solves no iters trigger", healthSample{Solves: 0, Iters: 0, Churn: 99, BasisEdges: 100}, MaintReasonChurn, 0},
	}
	for _, tc := range cases {
		reason, mean := m.evaluate(tc.s)
		if reason != tc.want || mean != tc.mean {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", tc.name, reason, mean, tc.want, tc.mean)
		}
	}

	// Disabled signals never fire.
	var off MaintenanceOptions
	if reason, _ := off.evaluate(healthSample{Solves: 100, Iters: 1e6, Kappa: 1e9, Churn: 1e6, BasisEdges: 1}); reason != MaintNone {
		t.Errorf("zero options fired %v", reason)
	}
}

func TestTuneTargetCond(t *testing.T) {
	cases := []struct {
		cur, mean, target, lo, hi, want float64
	}{
		{50, 100, 50, 10, 1000, 25},   // 2x over target -> halve
		{50, 25, 50, 10, 1000, 100},   // 2x under -> double
		{50, 500, 50, 10, 1000, 25},   // adjustment capped at 2x per rebuild
		{50, 1, 50, 10, 1000, 100},    // cap in the other direction
		{15, 100, 50, 10, 1000, 10},   // clamped at lo
		{800, 10, 50, 10, 1000, 1000}, // clamped at hi
		{50, 0, 50, 10, 1000, 50},     // no solves -> no change
		{50, 60, 0, 10, 1000, 50},     // no target -> no change
		{50, 50, 50, 10, 1000, 50},    // on target -> unchanged
	}
	for _, tc := range cases {
		if got := tuneTargetCond(tc.cur, tc.mean, tc.target, tc.lo, tc.hi); got != tc.want {
			t.Errorf("tune(%v, mean=%v, target=%v) = %v, want %v", tc.cur, tc.mean, tc.target, got, tc.want)
		}
	}
}

// --- manual resparsify -----------------------------------------------------

func TestManualResparsify(t *testing.T) {
	e := newEngine(t, 8, 8, Options{MaxBatch: 1})
	n := e.Current().G.NumNodes()
	for _, op := range makeStream(n, 30, 5) {
		applyOp(t, e, op)
	}
	before := e.Current().Gen
	gen, err := e.Resparsify(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if gen != before+1 || e.Current().Gen != gen {
		t.Fatalf("swap at gen %d (was %d), current %d", gen, before, e.Current().Gen)
	}
	v := e.Stats()
	if v.MaintRebuilds != 1 || v.MaintTriggersManual != 1 || v.MaintLastGeneration != gen {
		t.Fatalf("stats after swap: %+v", v)
	}
	if v.MaintState != "disabled" {
		t.Fatalf("controller state %q on a maintenance-disabled engine", v.MaintState)
	}
	// The swapped generation serves solves.
	x := make([]float64, n)
	if _, err := e.Current().SolveInto(ctxT(t), x, warmRHS(n), solver.Options{Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	// Writes continue across the swap.
	applyOp(t, e, streamOp{edges: []graph.Edge{{U: 0, V: n - 1, W: 1.25}}})
	if got := e.Current().Gen; got != gen+1 {
		t.Fatalf("post-swap write at gen %d, want %d", got, gen+1)
	}
}

func TestResparsifySingleFlight(t *testing.T) {
	parked := make(chan struct{})
	release := make(chan struct{})
	e := newEngine(t, 8, 8, Options{MaxBatch: 1, Maintenance: MaintenanceOptions{
		Hooks: MaintHooks{AfterBuild: func() { close(parked); <-release }},
	}})
	type res struct {
		gen uint64
		err error
	}
	first := make(chan res, 1)
	go func() {
		gen, err := e.Resparsify(ctxT(t))
		first <- res{gen, err}
	}()
	<-parked
	if _, err := e.Resparsify(ctxT(t)); !errors.Is(err, ErrRebuildInProgress) {
		t.Fatalf("want ErrRebuildInProgress, got %v", err)
	}
	close(release)
	r := <-first
	if r.err != nil {
		t.Fatal(r.err)
	}
	if v := e.Stats(); v.MaintRebuilds != 1 {
		t.Fatalf("rebuilds %d", v.MaintRebuilds)
	}
}

func TestResparsifyAfterClose(t *testing.T) {
	e := newEngine(t, 6, 6, Options{MaxBatch: 1})
	e.Close()
	if _, err := e.Resparsify(ctxT(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// --- the deterministic soak ------------------------------------------------

// soakWindow runs the per-window solve probe: solvesPerWindow solves with
// deterministic right-hand sides, returning the mean outer iteration count.
func soakWindow(t *testing.T, e *Engine, window int, solves int) float64 {
	t.Helper()
	n := e.Current().G.NumNodes()
	rng := vecmath.NewRNG(0x50AC ^ uint64(window)*0x9E3779B97F4A7C15)
	total := 0
	snap := e.Current()
	for s := 0; s < solves; s++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Range(-1, 1)
		}
		vecmath.CenterMean(b)
		x := make([]float64, n)
		st, err := snap.SolveInto(ctxT(t), x, b, solver.Options{Tol: 1e-8})
		if err != nil {
			t.Fatalf("window %d solve %d: %v", window, s, err)
		}
		total += st.Iterations
	}
	return float64(total) / float64(solves)
}

// makeLocalStream builds a deterministic add/delete workload of local edges
// over a rows x cols grid: each new edge joins two nodes at most radius
// rows and columns apart, never grid neighbours (so no stream edge
// duplicates an original one). Each pair is added once and deleted at most
// once, so every request succeeds on a correct engine.
func makeLocalStream(rows, cols, ops, radius int, seed uint64) []streamOp {
	rng := vecmath.NewRNG(seed)
	seen := map[uint64]bool{}
	var live []graph.Edge
	var out []streamOp
	for len(out) < ops {
		if len(live) > 0 && rng.Intn(5) == 0 {
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, streamOp{del: true, edges: []graph.Edge{{U: e.U, V: e.V}}})
			continue
		}
		var batch []graph.Edge
		for k := 1 + rng.Intn(4); k > 0; k-- {
			u := rng.Intn(rows * cols)
			dr, dc := rng.Intn(2*radius+1)-radius, rng.Intn(2*radius+1)-radius
			r, c := u/cols+dr, u%cols+dc
			if r < 0 || r >= rows || c < 0 || c >= cols || dr*dr+dc*dc <= 1 {
				continue
			}
			v := r*cols + c
			if seen[graph.KeyOf(u, v)] {
				continue
			}
			seen[graph.KeyOf(u, v)] = true
			e := graph.Edge{U: u, V: v, W: 0.25 + 2*rng.Float64()}
			batch = append(batch, e)
			live = append(live, e)
		}
		if len(batch) > 0 {
			out = append(out, streamOp{edges: batch})
		}
	}
	return out
}

// TestMaintenanceSoakBoundsIterations is the acceptance soak: a 2000-op
// churn stream of local edges over a 16x16 grid runs through two engines
// fed identical operations. The maintained engine evaluates its health
// after every window of probe solves (the exact code path a controller
// tick runs) with an iteration-target trigger; the baseline engine runs
// open-loop. Maintenance must fire at least once, keep the final-window
// iteration mean near the target, and the baseline must degrade well past
// the maintained engine — the closed loop is what bounds solve cost under
// churn.
//
// The stream is local so that both engines keep an exact factor of H,
// which every window asserts: only then does H's quality set the solve
// cost. A stream of uniformly random pairs turns the grid into a dense
// random graph, H's elimination stops at the pivot-degree cap, and both
// engines precondition with G's Jacobi diagonal, whose iteration count
// does not depend on H at all.
func TestMaintenanceSoakBoundsIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	const (
		rows, cols      = 16, 16
		ops             = 2000
		windowOps       = 100
		solvesPerWindow = 6
		streamSeed      = 7
	)

	// Calibrate the trigger against this workload's healthy baseline: probe
	// the freshly built engine's iteration mean, then target 1.5x it. A
	// throwaway engine keeps the soak engines' solve counters clean.
	probe := newEngine(t, rows, cols, Options{MaxBatch: 1})
	m0 := soakWindow(t, probe, 0, solvesPerWindow)
	probe.Close()
	target := 1.5 * m0

	maintained := newEngine(t, rows, cols, Options{MaxBatch: 1, Maintenance: MaintenanceOptions{
		IterTarget:    target,
		MinSolves:     4,
		CooldownTicks: 1,
	}})
	baseline := newEngine(t, rows, cols, Options{MaxBatch: 1})

	stream := makeLocalStream(rows, cols, ops, 3, streamSeed)
	var maintMeans, baseMeans []float64
	for i, op := range stream {
		applyOp(t, maintained, op)
		applyOp(t, baseline, op)
		if (i+1)%windowOps == 0 {
			w := (i + 1) / windowOps
			mm := soakWindow(t, maintained, w, solvesPerWindow)
			bm := soakWindow(t, baseline, w, solvesPerWindow)
			if !maintained.Current().fact.Factored() || !baseline.Current().fact.Factored() {
				t.Fatalf("window %d: H left the exact regime, so its quality no longer sets the solve cost", w)
			}
			maintMeans = append(maintMeans, mm)
			baseMeans = append(baseMeans, bm)
			// The controller tick: evaluate and, if over target, rebuild.
			if _, err := maintained.HealthCheck(ctxT(t)); err != nil {
				t.Fatalf("health check at window %d: %v", w, err)
			}
		}
	}
	t.Logf("healthy mean %.1f, target %.1f", m0, target)
	t.Logf("maintained windows: %.0f", maintMeans)
	t.Logf("baseline windows:   %.0f", baseMeans)

	v := maintained.Stats()
	if v.MaintRebuilds < 1 || v.MaintTriggersIterations < 1 {
		t.Fatalf("maintenance never fired: %+v", v)
	}
	mFinal := maintMeans[len(maintMeans)-1]
	bFinal := baseMeans[len(baseMeans)-1]
	if mFinal > 1.6*target {
		t.Fatalf("maintained engine not bounded: final mean %.1f vs target %.1f", mFinal, target)
	}
	if bFinal < 1.3*mFinal {
		t.Fatalf("baseline (%.1f) did not degrade past maintained (%.1f)", bFinal, mFinal)
	}
	if bFinal < 1.3*baseMeans[0] {
		t.Fatalf("baseline never degraded: first %.1f, final %.1f", baseMeans[0], bFinal)
	}
	if bv := baseline.Stats(); bv.MaintRebuilds != 0 {
		t.Fatalf("open-loop engine rebuilt %d times", bv.MaintRebuilds)
	}
}

// --- controller loop with injected clock ----------------------------------

// TestControllerInjectedTicks drives the background controller through an
// injected tick channel — no wall-clock timers anywhere — and walks the full
// trigger state machine: healthy tick, churn-triggered rebuild, cooldown
// suppression, cooldown expiry.
func TestControllerInjectedTicks(t *testing.T) {
	ticks := make(chan time.Time)
	reports := make(chan MaintReport, 16)
	e := newEngine(t, 8, 8, Options{MaxBatch: 1, Maintenance: MaintenanceOptions{
		Enabled:       true,
		ChurnFactor:   0.05,
		CooldownTicks: 2,
		Ticks:         ticks,
		Hooks:         MaintHooks{OnReport: func(r MaintReport, err error) { reports <- r }},
	}})
	n := e.Current().G.NumNodes()
	churn := func(ops int, seed uint64) {
		for _, op := range makeStream(n, ops, seed) {
			applyOp(t, e, op)
		}
	}
	tick := func() MaintReport {
		t.Helper()
		select {
		case ticks <- time.Time{}:
		case <-time.After(10 * time.Second):
			t.Fatal("controller stopped accepting ticks")
		}
		select {
		case r := <-reports:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("no report from controller tick")
			return MaintReport{}
		}
	}

	if v := e.Stats(); v.MaintState != "idle" {
		t.Fatalf("initial state %q", v.MaintState)
	}

	// Tick 1: no churn yet — healthy.
	if r := tick(); r.Reason != MaintNone || r.Triggered || r.Suppressed {
		t.Fatalf("healthy tick: %+v", r)
	}

	// Churn past the factor, tick again: rebuild fires.
	churn(12, 31)
	r := tick()
	if r.Reason != MaintReasonChurn || !r.Triggered || r.Generation == 0 {
		t.Fatalf("churn tick: %+v", r)
	}
	if v := e.Stats(); v.MaintState != "cooldown" || v.MaintTriggersChurn != 1 || v.MaintRebuilds != 1 {
		t.Fatalf("post-trigger stats: state=%q %+v", v.MaintState, v)
	}

	// More churn during cooldown: the trigger fires but is suppressed.
	churn(12, 37)
	if r := tick(); r.Reason != MaintReasonChurn || !r.Suppressed || r.Triggered {
		t.Fatalf("cooldown tick: %+v", r)
	}
	// Second cooldown tick expires the window...
	if r := tick(); !r.Suppressed && r.Reason != MaintNone {
		t.Fatalf("second cooldown tick: %+v", r)
	}
	if v := e.Stats(); v.MaintState != "idle" {
		t.Fatalf("state after cooldown expiry: %q", v.MaintState)
	}
	// ...and the still-outstanding churn fires on the next tick.
	if r := tick(); r.Reason != MaintReasonChurn || !r.Triggered {
		t.Fatalf("post-cooldown tick: %+v", r)
	}
	if v := e.Stats(); v.MaintRebuilds != 2 {
		t.Fatalf("rebuilds %d, want 2", v.MaintRebuilds)
	}

	// Closing the tick channel stops the controller; Close must not hang on
	// it (t.Cleanup runs e.Close after this).
	close(ticks)
}

// TestCondTriggerAndWarmKappa: the periodic condition estimate runs on its
// CondEvery cadence, lands in the kappa gauge, and trips the cond trigger.
func TestCondTriggerAndWarmKappa(t *testing.T) {
	// CondEvery 2: the first evaluation must skip the estimate.
	e := newEngine(t, 8, 8, Options{MaxBatch: 1, Maintenance: MaintenanceOptions{
		CondThreshold: 1.05,
		CondEvery:     2,
		CondIters:     40,
		CondSeed:      5,
		CooldownTicks: 1,
	}})
	rep, err := e.HealthCheck(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kappa != 0 || rep.Reason != MaintNone {
		t.Fatalf("first tick should skip the estimate: %+v", rep)
	}
	rep, err = e.HealthCheck(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kappa <= 1 {
		t.Fatalf("second tick kappa %v, want > 1", rep.Kappa)
	}
	if rep.Reason != MaintReasonCond || !rep.Triggered {
		t.Fatalf("cond trigger: %+v", rep)
	}
	v := e.Stats()
	if v.MaintKappa != rep.Kappa {
		t.Fatalf("kappa gauge %v vs report %v", v.MaintKappa, rep.Kappa)
	}
	if v.MaintTriggersCond != 1 || v.MaintRebuilds != 1 {
		t.Fatalf("stats: %+v", v)
	}
	if v.CondQueries == 0 {
		t.Fatal("estimate not accounted in cond_queries")
	}
}

// TestDensityTuneAdjustsTargetCond: with DensityTune on and the engine
// iterating far over target, the rebuilt basis must carry a halved (capped
// adjustment) target condition number — the density knob moving toward
// cheaper solves.
func TestDensityTuneAdjustsTargetCond(t *testing.T) {
	e := newEngine(t, 8, 8, Options{MaxBatch: 1, Maintenance: MaintenanceOptions{
		IterTarget:    1, // any real solve iterates past this
		MinSolves:     1,
		DensityTune:   true,
		CooldownTicks: 1,
	}})
	if got := e.Stats().MaintTargetCond; got != 50 {
		t.Fatalf("initial target cond gauge %v, want 50 (engine config)", got)
	}
	n := e.Current().G.NumNodes()
	x := make([]float64, n)
	if _, err := e.Current().SolveInto(ctxT(t), x, warmRHS(n), solver.Options{Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.HealthCheck(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != MaintReasonIters || !rep.Triggered {
		t.Fatalf("report: %+v", rep)
	}
	if got := e.Stats().MaintTargetCond; got != 25 {
		t.Fatalf("tuned target cond %v, want 25 (50 / capped ratio 2)", got)
	}
	if got := e.Stats().MaintIterTrend; got <= 1 {
		t.Fatalf("iteration trend gauge %v", got)
	}
}

// --- writer stall regression ----------------------------------------------

// TestWritesFlowDuringRebuild is the no-stall regression: a rebuild parked
// indefinitely in its offline phase (AfterBuild hook) must not block the
// write pipeline. Every write issued while the rebuild is parked completes
// under a bound that a stalled writer could never meet, and the swap lands
// strictly after them.
func TestWritesFlowDuringRebuild(t *testing.T) {
	parked := make(chan struct{})
	release := make(chan struct{})
	e := newEngine(t, 12, 12, Options{MaxBatch: 1, Maintenance: MaintenanceOptions{
		Hooks: MaintHooks{AfterBuild: func() { close(parked); <-release }},
	}})
	n := e.Current().G.NumNodes()

	type res struct {
		gen uint64
		err error
	}
	swapped := make(chan res, 1)
	go func() {
		gen, err := e.Resparsify(ctxT(t))
		swapped <- res{gen, err}
	}()
	<-parked

	// The rebuild is parked (no engine lock held). Writes must flow.
	const writes = 40
	rng := vecmath.NewRNG(77)
	lat := make([]time.Duration, 0, writes)
	var lastWriteGen uint64
	for i := 0; i < writes; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (u + 1) % n
		}
		start := time.Now()
		wr, err := e.Add(ctxT(t), []graph.Edge{{U: u, V: v, W: 1 + rng.Float64()}})
		if err != nil {
			t.Fatalf("write %d during parked rebuild: %v", i, err)
		}
		lat = append(lat, time.Since(start))
		lastWriteGen = wr.Generation
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p99 := lat[len(lat)*99/100]; p99 > time.Second {
		t.Fatalf("p99 write latency %v during parked rebuild", p99)
	}

	close(release)
	r := <-swapped
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.gen <= lastWriteGen {
		t.Fatalf("swap gen %d not after the %d writes (last gen %d)", r.gen, writes, lastWriteGen)
	}
	// The adopted basis accounts for every edge admitted during the build:
	// the swapped generation still serves correct solves.
	x := make([]float64, n)
	if _, err := e.Current().SolveInto(ctxT(t), x, warmRHS(n), solver.Options{Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
}

// --- durability: crash mid-rebuild, replay after swap ----------------------

// TestCrashMidRebuildRecovery injects a crash in the window between basis
// adoption and the WAL append (the BeforeLog hook). The swap must be neither
// logged nor published, the WAL must flip to its sticky degraded mode, and
// recovery from the directory must land bit-identically on the state of a
// control engine that never attempted maintenance — the rebuild simply never
// happened, durably speaking.
func TestCrashMidRebuildRecovery(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected crash before maintenance log append")
	e, store := newDurableEngine(t, 8, 8, Options{MaxBatch: 1, Maintenance: MaintenanceOptions{
		Hooks: MaintHooks{BeforeLog: func() error { return boom }},
	}}, dir, wal.Options{Sync: wal.SyncNever})
	control := newEngine(t, 8, 8, Options{MaxBatch: 1})

	n := e.Current().G.NumNodes()
	for _, op := range makeStream(n, 40, 13) {
		applyOp(t, e, op)
		applyOp(t, control, op)
	}
	preGen := e.Current().Gen

	if _, err := e.Resparsify(ctxT(t)); !errors.Is(err, boom) {
		t.Fatalf("want injected crash error, got %v", err)
	}
	if got := e.Current().Gen; got != preGen {
		t.Fatalf("crashed swap published gen %d (was %d)", got, preGen)
	}
	if v := e.Stats(); v.MaintRebuilds != 0 || v.MaintFailures != 1 {
		t.Fatalf("stats after crashed swap: %+v", v)
	}
	// Durability is now degraded, stickily: the next write applies but
	// reports ErrNotDurable (the in-memory basis diverged from the log).
	if _, err := e.Add(ctxT(t), []graph.Edge{{U: 0, V: n - 1, W: 2}}); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("want ErrNotDurable after crashed swap, got %v", err)
	}

	e.Close()
	store.Close()
	store2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Recover(store2, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		recovered.Close()
		store2.Close()
	}()

	// Recovery = the stream without the rebuild (and without the unlogged
	// degraded-mode write): exactly the control engine's state.
	if got := recovered.Current().Gen; got != preGen {
		t.Fatalf("recovered gen %d, want %d", got, preGen)
	}
	if got, want := recovered.CoreStats(), control.CoreStats(); got != want {
		t.Fatalf("recovered stats %+v, want %+v", got, want)
	}
	sameGraphBits(t, "G", recovered.Current().G, control.Current().G)
	sameGraphBits(t, "H", recovered.Current().H, control.Current().H)
}

// TestReplayAfterSwapMatchesLive: the happy-path durability property. A
// stream runs with a successful mid-stream swap (logged as a maintenance
// record); recovery must reproduce the live engine bit for bit — the decode →
// AdoptBasis replay path and the in-process BuildSetup/AdoptSetup path
// converge on identical state.
func TestReplayAfterSwapMatchesLive(t *testing.T) {
	dir := t.TempDir()
	e, store := newDurableEngine(t, 8, 8, Options{MaxBatch: 1}, dir, wal.Options{Sync: wal.SyncNever})
	n := e.Current().G.NumNodes()
	stream := makeStream(n, 60, 17)
	for _, op := range stream[:35] {
		applyOp(t, e, op)
	}
	swapGen, err := e.Resparsify(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range stream[35:] {
		applyOp(t, e, op)
	}
	wantGen := e.Current().Gen
	wantStats := e.CoreStats()
	wantG := e.Current().G.Snapshot()
	wantH := e.Current().H.Snapshot()

	e.Close()
	store.Close()
	store2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Recover(store2, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		recovered.Close()
		store2.Close()
	}()

	if got := recovered.Current().Gen; got != wantGen {
		t.Fatalf("recovered gen %d, want %d (swap at %d)", got, wantGen, swapGen)
	}
	if got := recovered.CoreStats(); got != wantStats {
		t.Fatalf("recovered stats %+v, want %+v", got, wantStats)
	}
	sameGraphBits(t, "G", recovered.Current().G, wantG)
	sameGraphBits(t, "H", recovered.Current().H, wantH)

	// Post-recovery, the engine keeps writing AND keeps swapping durably.
	applyOp(t, recovered, streamOp{edges: []graph.Edge{{U: 1, V: n - 2, W: 0.75}}})
	if _, err := recovered.Resparsify(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if got := recovered.Current().Gen; got != wantGen+2 {
		t.Fatalf("post-recovery gen %d, want %d", got, wantGen+2)
	}
}

// --- GC pressure policy ----------------------------------------------------

func TestRegistryTrimTo(t *testing.T) {
	r := NewRegistry(8)
	for gen := uint64(1); gen <= 6; gen++ {
		r.Publish(newSnapshot(gen, nil, nil, &Stats{}, solver.Options{}))
	}
	if dropped := r.TrimTo(10); dropped != 0 {
		t.Fatalf("TrimTo above size dropped %d", dropped)
	}
	if dropped := r.TrimTo(2); dropped != 4 {
		t.Fatalf("TrimTo(2) dropped %d, want 4", dropped)
	}
	if gens := r.Generations(); len(gens) != 2 || gens[0] != 5 || gens[1] != 6 {
		t.Fatalf("retained %v", gens)
	}
	if r.Current().Gen != 6 {
		t.Fatalf("current %d after trim", r.Current().Gen)
	}
	// Minimum 1: the current snapshot is never evicted.
	if dropped := r.TrimTo(0); dropped != 1 {
		t.Fatalf("TrimTo(0) dropped %d, want 1", dropped)
	}
	if gens := r.Generations(); len(gens) != 1 || gens[0] != 6 {
		t.Fatalf("retained %v", gens)
	}
}

// TestRetainAfterSwapEvicts: the post-swap GC pressure policy drops the
// registry's references to pre-swap generations (whose factorizations were
// built on the superseded basis), while the normal Retain window keeps them
// on engines without the policy.
func TestRetainAfterSwapEvicts(t *testing.T) {
	e := newEngine(t, 6, 6, Options{MaxBatch: 1, Retain: 4, Maintenance: MaintenanceOptions{
		RetainAfterSwap: 1,
	}})
	n := e.Current().G.NumNodes()
	for _, op := range makeStream(n, 5, 23) {
		applyOp(t, e, op)
	}
	preGens := e.Generations()
	if len(preGens) != 4 {
		t.Fatalf("retained %v before swap, want 4", preGens)
	}
	gen, err := e.Resparsify(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if gens := e.Generations(); len(gens) != 1 || gens[0] != gen {
		t.Fatalf("retained %v after swap, want [%d]", gens, gen)
	}
	if _, ok := e.At(preGens[len(preGens)-1]); ok {
		t.Fatal("pre-swap generation still addressable after eviction")
	}
	if v := e.Stats(); v.GenerationsEvicted != 3 {
		t.Fatalf("generations_evicted %d, want 3", v.GenerationsEvicted)
	}

	// Without the policy the swap keeps the retention window.
	e2 := newEngine(t, 6, 6, Options{MaxBatch: 1, Retain: 4})
	for _, op := range makeStream(n, 5, 23) {
		applyOp(t, e2, op)
	}
	if _, err := e2.Resparsify(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if gens := e2.Generations(); len(gens) != 4 {
		t.Fatalf("default engine retained %v after swap, want 4", gens)
	}
	if v := e2.Stats(); v.GenerationsEvicted != 0 {
		t.Fatalf("default engine evicted %d", v.GenerationsEvicted)
	}
}

// --- concurrency hammer (run with -race) -----------------------------------

// TestMaintenanceConcurrencyHammer mixes readers, writers, health checks,
// and repeated forced swaps. Correctness bar: no data race (the -race run in
// CI), every read is served by a consistent snapshot, and the engine is
// still coherent afterwards.
func TestMaintenanceConcurrencyHammer(t *testing.T) {
	e := newEngine(t, 8, 8, Options{MaxBatch: 8,
		Maintenance: MaintenanceOptions{IterTarget: 5, MinSolves: 1, CooldownTicks: 1}})
	n := e.Current().G.NumNodes()
	ctx := ctxT(t)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Writers.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := vecmath.NewRNG(seed)
			for i := 0; i < 60; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				if _, err := e.Add(ctx, []graph.Edge{{U: u, V: v, W: 0.5 + rng.Float64()}}); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(uint64(w) + 41)
	}
	// Readers.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			rng := vecmath.NewRNG(seed)
			b := make([]float64, n)
			x := make([]float64, n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range b {
					b[i] = rng.Range(-1, 1)
				}
				vecmath.CenterMean(b)
				if _, err := e.Current().SolveInto(ctx, x, b, solver.Options{Tol: 1e-6}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(uint64(r) + 61)
	}
	// Maintenance: repeated forced swaps and health evaluations.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 5; i++ {
			if _, err := e.Resparsify(ctx); err != nil && !errors.Is(err, ErrRebuildInProgress) {
				t.Errorf("resparsify: %v", err)
				return
			}
			if _, err := e.HealthCheck(ctx); err != nil {
				t.Errorf("health check: %v", err)
				return
			}
		}
	}()

	// Writers and the maintenance loop bound the run; readers spin until
	// both finish, then are told to stop.
	writers.Wait()
	close(stop)
	readers.Wait()

	// Post-hammer coherence: a write, a swap, and a solve all still work.
	if _, err := e.Add(ctx, []graph.Edge{{U: 0, V: n - 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resparsify(ctx); err != nil && !errors.Is(err, ErrRebuildInProgress) {
		t.Fatal(err)
	}
	x := make([]float64, n)
	if _, err := e.Current().SolveInto(ctx, x, warmRHS(n), solver.Options{Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	if err := e.Current().H.Validate(); err != nil {
		t.Fatalf("H incoherent after hammer: %v", err)
	}
}
