package vecmath

import (
	"math"
	"sort"
	"testing"
)

// stableOrder is the oracle for Order: positions stably sorted by key.
func stableOrder(keys []float64, desc bool) []int32 {
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(i)
	}
	sort.SliceStable(want, func(a, b int) bool {
		if desc {
			return keys[want[a]] > keys[want[b]]
		}
		return keys[want[a]] < keys[want[b]]
	})
	return want
}

func checkOrder(t *testing.T, name string, keys []float64) {
	t.Helper()
	for _, desc := range []bool{false, true} {
		got, want := Order(keys, desc), stableOrder(keys, desc)
		if len(got) != len(want) {
			t.Fatalf("%s desc=%v: %d positions, want %d", name, desc, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s desc=%v: rank %d holds position %d (key %v), stable sort put %d (key %v) there",
					name, desc, i, got[i], keys[got[i]], want[i], keys[want[i]])
			}
		}
	}
}

// TestOrderMatchesStableSort checks Order against a stable sort of the
// positions, in both directions, on the edge cases of the key mapping and
// on random keys.
func TestOrderMatchesStableSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	cases := map[string][]float64{
		"empty":         {},
		"one":           {3},
		"two ascending": {1, 2},
		"two equal":     {2, 2},
		"two reversed":  {2, 1},
		"all equal":     {7, 7, 7, 7, 7, 7, 7},
		"signed zeros":  {0, negZero, 0, negZero, 1, -1},
		"infinities":    {math.Inf(1), 1, math.Inf(-1), math.Inf(1), -1, math.Inf(-1), math.MaxFloat64, -math.MaxFloat64},
		"denormals":     {tiny, -tiny, 2 * tiny, 0, negZero, -2 * tiny, math.Float64frombits(0x000fffffffffffff), tiny},
		"negative":      {-3, -0.5, -3, -1e300, -1e-300, -2, -0.5},
	}
	for name, keys := range cases {
		checkOrder(t, name, keys)
	}

	// Small pools make ties common; each draw mixes in the special values.
	pool := []float64{math.Inf(-1), math.Inf(1), negZero, 0, tiny, -tiny, 0.5, 1, 2, -3}
	r := NewRNG(1)
	for trial := 0; trial < 300; trial++ {
		keys := make([]float64, r.Intn(300))
		for i := range keys {
			keys[i] = pool[r.Intn(len(pool))]
		}
		checkOrder(t, "pool", keys)
	}
}

// TestLargeOrderMatchesStableSort sorts 131,072 keys whose bit patterns are
// uniformly random (NaNs redrawn), so every byte of the mapped keys varies
// and all eight counting passes run, plus a copy with duplicated keys.
func TestLargeOrderMatchesStableSort(t *testing.T) {
	r := NewRNG(2)
	keys := make([]float64, 1<<17)
	for i := range keys {
		k := math.Float64frombits(r.Uint64())
		for math.IsNaN(k) {
			k = math.Float64frombits(r.Uint64())
		}
		keys[i] = k
	}
	for d := 0; d < 8; d++ {
		first := byte(math.Float64bits(keys[0]) >> (8 * d))
		same := true
		for _, k := range keys {
			if byte(math.Float64bits(k)>>(8*d)) != first {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("fixture: byte %d is the same in every key, so its pass would be skipped", d)
		}
	}
	checkOrder(t, "random bits", keys)
	for i := range keys {
		keys[i] = keys[r.Intn(1024)] // heavy ties
	}
	checkOrder(t, "duplicated", keys)
}

// BenchmarkOrder times Order on one stream-mesh batch worth of keys: 4,717
// distortion-like values, descending, as the update phase orders a batch.
func BenchmarkOrder(b *testing.B) {
	r := NewRNG(1)
	keys := make([]float64, 4717)
	for i := range keys {
		keys[i] = r.Range(1, 3) * math.Exp(r.Range(-4, 4))
	}
	b.ReportAllocs()
	for b.Loop() {
		Order(keys, true)
	}
}
