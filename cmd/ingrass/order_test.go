package main

import (
	"slices"
	"sort"
	"testing"

	"ingrass/internal/obs/trace"
	"ingrass/internal/vecmath"
)

// TestSpanRowOrderMatchesStableSort pins byStart to the waterfall order
// renderTrace had before it became a typed sort: rows in collection order,
// stably sorted by span start. Starts come from a few values so most rows
// tie.
func TestSpanRowOrderMatchesStableSort(t *testing.T) {
	r := vecmath.NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		rows := make([]spanRow, r.Intn(100))
		for i := range rows {
			rows[i] = spanRow{span: trace.SpanSnapshot{StartUnixNano: int64(r.Intn(4)) - 1}, seq: i}
		}
		want := slices.Clone(rows)
		sort.SliceStable(want, func(i, j int) bool { return want[i].span.StartUnixNano < want[j].span.StartUnixNano })
		slices.SortFunc(rows, byStart)
		for i := range want {
			if rows[i].seq != want[i].seq {
				t.Fatalf("trial %d: position %d holds row %d, stable sort put %d there", trial, i, rows[i].seq, want[i].seq)
			}
		}
	}
}
