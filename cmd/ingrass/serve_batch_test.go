package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ingrass"
)

// testBatchService is testService with the deprecated CoalesceSingles
// set, as callers written before it was ignored still do; it must serve
// exactly like testService.
func testBatchService(t *testing.T) *ingrass.Service {
	t.Helper()
	const rows, cols = 6, 6
	g := ingrass.NewGraph(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				if _, err := g.AddEdge(id(i, j), id(i, j+1), 1); err != nil {
					t.Fatal(err)
				}
			}
			if i+1 < rows {
				if _, err := g.AddEdge(id(i, j), id(i+1, j), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	svc, err := ingrass.NewService(g, ingrass.ServiceOptions{
		Options: ingrass.Options{InitialDensity: 0.1, Seed: 1},
		Batch:   ingrass.BatchOptions{CoalesceSingles: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestResistanceValidation pins the structured 400s of GET /resistance:
// missing, non-integer, out-of-range, and equal endpoints each name the
// offending field and a machine-matchable reason.
func TestResistanceValidation(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	cases := []struct {
		name   string
		query  string
		field  string
		reason string
	}{
		{"missing u", "/resistance?v=3", "u", reasonMissing},
		{"missing v", "/resistance?u=3", "v", reasonMissing},
		{"missing both", "/resistance", "u", reasonMissing},
		{"non-integer u", "/resistance?u=abc&v=3", "u", reasonNotAnInteger},
		{"float v", "/resistance?u=3&v=1.5", "v", reasonNotAnInteger},
		{"negative u", "/resistance?u=-1&v=3", "u", reasonOutOfRange},
		{"v beyond n", "/resistance?u=3&v=36", "v", reasonOutOfRange},
		{"u == v", "/resistance?u=7&v=7", "v", reasonEqualEndpoints},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fe fieldError
			resp := doJSON(t, srv, http.MethodGet, tc.query, nil, &fe)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if fe.Field != tc.field || fe.Reason != tc.reason || fe.Error == "" {
				t.Fatalf("field error %+v, want field=%q reason=%q", fe, tc.field, tc.reason)
			}
		})
	}

	// A valid query still works after all those rejections.
	var okBody struct {
		Resistance float64 `json:"resistance"`
	}
	if resp := doJSON(t, srv, http.MethodGet, "/resistance?u=0&v=35", nil, &okBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid query: %d", resp.StatusCode)
	}
	if okBody.Resistance <= 0 {
		t.Fatalf("resistance %g, want > 0", okBody.Resistance)
	}
}

// TestSolveBatchEndpoint: POST /solve/batch answers every right-hand side
// identically to individual POST /solve calls, under one generation.
func TestSolveBatchEndpoint(t *testing.T) {
	svc := testBatchService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	const n, k = 36, 5
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = math.Sin(float64(i*(j+1) + j))
		}
	}
	var br batchSolveResponse
	resp := doJSON(t, srv, http.MethodPost, "/solve/batch", batchSolveRequest{Bs: bs, Tol: 1e-8}, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /solve/batch: %d", resp.StatusCode)
	}
	if len(br.Results) != k {
		t.Fatalf("%d results, want %d", len(br.Results), k)
	}
	for j, item := range br.Results {
		if item.Error != "" || !item.Stats.Converged || len(item.X) != n {
			t.Fatalf("result %d: %+v", j, item.Stats)
		}
		if item.Stats.Generation != br.Generation {
			t.Fatalf("result %d generation %d != batch generation %d", j, item.Stats.Generation, br.Generation)
		}
		var sr solveResponse
		if resp := doJSON(t, srv, http.MethodPost, "/solve", solveRequest{B: bs[j], Tol: 1e-8}, &sr); resp.StatusCode != http.StatusOK {
			t.Fatalf("single solve %d: %d", j, resp.StatusCode)
		}
		for i := range sr.X {
			if math.Abs(sr.X[i]-item.X[i]) > 1e-12 {
				t.Fatalf("result %d deviates from single solve at %d", j, i)
			}
		}
	}

	// Empty batch is a structured 400.
	var fe fieldError
	if resp := doJSON(t, srv, http.MethodPost, "/solve/batch", batchSolveRequest{}, &fe); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
	if fe.Field != "bs" || fe.Reason != reasonMissing {
		t.Fatalf("empty batch error %+v", fe)
	}
}

// TestSolveBatchDeadline: a POST /solve/batch whose deadline_ms expires
// before its blocks finish answers 408, as a single POST /solve does.
func TestSolveBatchDeadline(t *testing.T) {
	g, err := ingrass.GenerateTriMesh(40, 40, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ingrass.NewService(g, ingrass.ServiceOptions{
		Options: ingrass.Options{InitialDensity: 0.1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	// 64 tight-tolerance columns on a 1,600-node mesh take far longer
	// than the 1 ms budget.
	n := svc.NumNodes()
	bs := make([][]float64, 64)
	for j := range bs {
		bs[j] = make([]float64, n)
		bs[j][j], bs[j][n-1-j] = 1, -1
	}
	var e errorResponse
	resp := doJSON(t, srv, http.MethodPost, "/solve/batch", batchSolveRequest{Bs: bs, Tol: 1e-12, DeadlineMS: 1}, &e)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("expired batch: %d (%+v), want 408", resp.StatusCode, e)
	}
}

// TestResistanceBatchEndpoint: POST /resistance/batch mixes valid,
// degenerate, and invalid pairs with per-item outcomes.
func TestResistanceBatchEndpoint(t *testing.T) {
	svc := testBatchService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	req := batchResistanceRequest{Pairs: []edgeJSON{
		{U: 0, V: 35}, {U: 1, V: 2}, {U: 4, V: 4}, {U: 0, V: 99}, {U: 35, V: 0},
	}}
	var br batchResistanceResponse
	resp := doJSON(t, srv, http.MethodPost, "/resistance/batch", req, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /resistance/batch: %d", resp.StatusCode)
	}
	if len(br.Results) != 5 {
		t.Fatalf("%d results, want 5", len(br.Results))
	}
	if br.Results[0].Error != "" || br.Results[0].Resistance <= 0 {
		t.Fatalf("pair 0: %+v", br.Results[0])
	}
	if br.Results[2].Error != "" || br.Results[2].Resistance != 0 {
		t.Fatalf("u==v pair: %+v", br.Results[2])
	}
	if br.Results[3].Error == "" {
		t.Fatalf("out-of-range pair succeeded: %+v", br.Results[3])
	}
	if math.Abs(br.Results[0].Resistance-br.Results[4].Resistance) > 1e-9 {
		t.Fatalf("resistance not symmetric: %g vs %g", br.Results[0].Resistance, br.Results[4].Resistance)
	}

	// Cross-check one pair against the single endpoint.
	var single struct {
		Resistance float64 `json:"resistance"`
	}
	if resp := doJSON(t, srv, http.MethodGet, "/resistance?u=1&v=2", nil, &single); resp.StatusCode != http.StatusOK {
		t.Fatalf("single resistance: %d", resp.StatusCode)
	}
	if math.Abs(single.Resistance-br.Results[1].Resistance) > 1e-9 {
		t.Fatalf("batch %g vs single %g", br.Results[1].Resistance, single.Resistance)
	}
}

// TestCoalescedSolvesAndStats: concurrent single POST /solve requests are
// transparently coalesced, and GET /stats exposes the scheduler counters.
func TestCoalescedSolvesAndStats(t *testing.T) {
	svc := testBatchService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	const n, clients = 36, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := make([]float64, n)
			for i := range b {
				b[i] = math.Sin(float64(i + c))
			}
			var sr solveResponse
			resp := doJSON(t, srv, http.MethodPost, "/solve", solveRequest{B: b, Tol: 1e-8}, &sr)
			if resp.StatusCode != http.StatusOK || !sr.Stats.Converged {
				t.Errorf("client %d: status %d stats %+v", c, resp.StatusCode, sr.Stats)
			}
		}(c)
	}
	wg.Wait()

	var st ingrass.ServiceStats
	if resp := doJSON(t, srv, http.MethodGet, "/stats", nil, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %d", resp.StatusCode)
	}
	if st.BatchesFormed == 0 {
		t.Fatal("stats report zero batches formed after coalesced solves")
	}
	if st.AvgBlockFill <= 0 {
		t.Fatalf("avg block fill %v", st.AvgBlockFill)
	}
	if st.BatchQueueDepth != 0 {
		t.Fatalf("queue depth %d at idle", st.BatchQueueDepth)
	}
	if st.Solves < clients {
		t.Fatalf("stats count %d solves, want >= %d", st.Solves, clients)
	}
}
