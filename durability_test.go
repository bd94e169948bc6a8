package ingrass

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestServiceDurabilityRoundTrip drives the public durable lifecycle:
// NewService with a data directory, writes, an explicit checkpoint, more
// writes (so recovery exercises checkpoint ⊕ WAL replay), restart via
// LoadService, and equality of generation, graph sizes, and solve output.
func TestServiceDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := serviceGrid(t, 8, 8)
	n := g.NumNodes()
	opts := ServiceOptions{
		Options:  Options{InitialDensity: 0.1, Seed: 1, TargetCond: 50},
		MaxBatch: 1,
		DataDir:  dir,
		Fsync:    FsyncNever, // tests don't need the disk flushes
	}
	svc, err := NewService(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := svc.AddEdges(ctx, []Edge{{U: 0, V: 37, W: 2}, {U: 5, V: 60, W: 0.5}}); err != nil {
		t.Fatal(err)
	}
	ckGen, err := svc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckGen != 1 {
		t.Fatalf("checkpoint at gen %d, want 1", ckGen)
	}
	if _, err := svc.AddEdges(ctx, []Edge{{U: 9, V: 44, W: 1.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DeleteEdges(ctx, []Edge{{U: 0, V: 37}}); err != nil {
		t.Fatal(err)
	}
	wantStats := svc.Stats()
	if wantStats.WALAppends != 3 || wantStats.WALErrors != 0 {
		t.Fatalf("wal counters: %+v", wantStats)
	}
	b := make([]float64, n)
	b[0], b[n-1] = 1, -1
	wantX, _, err := svc.Solve(ctx, b, SolveOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// NewService must refuse to clobber the directory.
	if _, err := NewService(serviceGrid(t, 8, 8), opts); !errors.Is(err, ErrDataDirNotEmpty) {
		t.Fatalf("want ErrDataDirNotEmpty, got %v", err)
	}

	re, err := LoadService(ServiceOptions{DataDir: dir, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.Generation(), wantStats.Generation; got != want {
		t.Fatalf("recovered generation %d, want %d", got, want)
	}
	gotStats := re.Stats()
	if gotStats.GraphEdges != wantStats.GraphEdges || gotStats.SparsifierEdges != wantStats.SparsifierEdges ||
		gotStats.Nodes != wantStats.Nodes {
		t.Fatalf("recovered sizes %+v, want %+v", gotStats, wantStats)
	}
	gotX, _, err := re.Solve(ctx, b, SolveOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	var diff, norm float64
	for i := range gotX {
		d := gotX[i] - wantX[i]
		diff += d * d
		norm += wantX[i] * wantX[i]
	}
	if diff > 1e-18*(1+norm) {
		t.Fatalf("recovered solve diverges: ||dx||^2 = %g", diff)
	}

	// The reloaded service keeps accepting durable writes and checkpoints.
	if _, err := re.AddEdges(ctx, []Edge{{U: 1, V: 50, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRejectsNonFiniteWeights: Service.AddEdges and AddEdgesAsync
// return ErrInvalidEdge for a weight that is not positive and finite. No
// generation is published and nothing is appended to the WAL; the service
// keeps serving writes and solves, and a reload recovers only the valid
// write.
func TestServiceRejectsNonFiniteWeights(t *testing.T) {
	dir := t.TempDir()
	g := serviceGrid(t, 8, 8)
	n := g.NumNodes()
	svc, err := NewService(g, ServiceOptions{
		Options:  Options{InitialDensity: 0.1, Seed: 1, TargetCond: 50},
		MaxBatch: 1,
		DataDir:  dir,
		Fsync:    FsyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, w := range badWeights {
		batch := []Edge{{U: 0, V: 37, W: 2}, {U: 5, V: 60, W: w}}
		if _, err := svc.AddEdges(ctx, batch); !errors.Is(err, ErrInvalidEdge) {
			t.Fatalf("AddEdges weight %v: got %v, want ErrInvalidEdge", w, err)
		}
		if _, err := svc.AddEdgesAsync(batch); !errors.Is(err, ErrInvalidEdge) {
			t.Fatalf("AddEdgesAsync weight %v: got %v, want ErrInvalidEdge", w, err)
		}
	}
	if st := svc.Stats(); st.Generation != 0 || st.WALAppends != 0 || st.GraphEdges != g.NumEdges() {
		t.Fatalf("rejected writes left a trace: generation %d, wal appends %d, graph edges %d (want %d)",
			st.Generation, st.WALAppends, st.GraphEdges, g.NumEdges())
	}

	res, err := svc.AddEdges(ctx, []Edge{{U: 0, V: 37, W: 2}})
	if err != nil {
		t.Fatalf("valid write after rejections: %v", err)
	}
	if res.Generation != 1 || svc.Stats().WALAppends != 1 {
		t.Fatalf("valid write: generation %d, wal appends %d; want 1, 1", res.Generation, svc.Stats().WALAppends)
	}
	b := make([]float64, n)
	b[0], b[n-1] = 1, -1
	if _, _, err := svc.Solve(ctx, b, SolveOptions{Tol: 1e-8}); err != nil {
		t.Fatalf("solve after rejections: %v", err)
	}
	wantEdges := svc.Stats().GraphEdges
	svc.Close()

	re, err := LoadService(ServiceOptions{DataDir: dir, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Generation != 1 || st.GraphEdges != wantEdges {
		t.Fatalf("recovered generation %d with %d edges, want 1 with %d", st.Generation, st.GraphEdges, wantEdges)
	}
}

// TestSingleNodeCheckpointReopens saves a one-node service, checkpoints it
// and reopens the data directory. The one node's hierarchy has no level 1,
// so the checkpoint's filter level is the one setup picks, not a level of
// the hierarchy.
func TestSingleNodeCheckpointReopens(t *testing.T) {
	dir := t.TempDir()
	opts := ServiceOptions{
		Options: Options{InitialDensity: 0.1, Seed: 1},
		DataDir: dir,
		Fsync:   FsyncNever,
	}
	svc, err := NewService(NewGraph(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	ckGen, err := svc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want := svc.Stats()
	svc.Close()

	re, err := LoadService(ServiceOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Stats()
	if re.Generation() != ckGen || got.Nodes != 1 || got.GraphEdges != want.GraphEdges || got.SparsifierEdges != want.SparsifierEdges {
		t.Fatalf("reopened at generation %d with %+v; checkpoint at %d with %+v", re.Generation(), got, ckGen, want)
	}
}

func TestLoadServiceErrors(t *testing.T) {
	if _, err := LoadService(ServiceOptions{}); err == nil {
		t.Fatal("want error without DataDir")
	}
	if _, err := LoadService(ServiceOptions{DataDir: t.TempDir()}); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint on empty dir, got %v", err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"never", FsyncNever}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("want error on unknown policy")
	}
}
