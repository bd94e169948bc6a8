package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestBinaryRoundTripExact(t *testing.T) {
	g := New(6, 8)
	g.AddEdge(0, 1, 1.25)
	g.AddEdge(1, 2, 3e-7)
	g.AddEdge(2, 3, 0.1) // not exactly representable
	g.AddEdge(3, 4, 7)
	g.AddEdge(4, 5, 2.5)
	g.AddEdge(5, 0, 1e12)
	// Drift the totalWeight accumulator through a mutation history so the
	// cached value differs from a fresh re-accumulation.
	g.SetWeight(2, 0.30000000000000004)
	g.SetWeight(0, g.Edge(0).W*(1.0/3.0))
	g.SetWeight(4, 1e-13)

	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %v vs %v", got, g)
	}
	if math.Float64bits(got.TotalWeight()) != math.Float64bits(g.TotalWeight()) {
		t.Fatalf("totalWeight bits differ: %x vs %x",
			math.Float64bits(got.TotalWeight()), math.Float64bits(g.TotalWeight()))
	}
	for i, e := range g.All() {
		ge := got.Edge(i)
		if ge.U != e.U || ge.V != e.V || math.Float64bits(ge.W) != math.Float64bits(e.W) {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ge, e)
		}
	}
	if err := got.Validate(); err != nil {
		// totalWeight was restored, not recomputed; Validate tolerates
		// accumulator drift only within 1e-9 relative, which this history
		// stays inside.
		t.Fatalf("decoded graph invalid: %v", err)
	}
	// Adjacency must be fully rebuilt, each list in edge-index order.
	if idx, ok := got.FindEdge(3, 2); !ok || idx != 2 {
		t.Fatalf("FindEdge(3,2) = %d, %v", idx, ok)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if !slices.Equal(got.Adj(u), g.Adj(u)) {
			t.Fatalf("node %d adjacency %v, want %v", u, got.Adj(u), g.Adj(u))
		}
	}
	// Re-encoding the decoded graph must be byte-identical.
	var buf2 bytes.Buffer
	if err := WriteBinary(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoded bytes differ from original encoding")
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	g := New(3, 2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), full...)
		b[0] = 'X'
		if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
			t.Fatal("want error on bad magic")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(full); cut += 3 {
			if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("want error on truncation at %d bytes", cut)
			}
		}
	})
	t.Run("endpoint past int64", func(t *testing.T) {
		b := binaryHeader(3, 1)
		b = binary.AppendUvarint(b, 1<<63)
		b = binary.AppendUvarint(b, 1)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
			t.Fatal("want error on an endpoint past the node count")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
			t.Fatal("want error on empty input")
		}
	})
}

// binaryHeader encodes a header claiming n nodes and m edges, with no edges.
func binaryHeader(n, m uint64) []byte {
	b := append([]byte(nil), binaryMagic[:]...)
	b = binary.AppendUvarint(b, n)
	b = binary.AppendUvarint(b, m)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
}

func TestBinaryHeaderBounds(t *testing.T) {
	for _, tc := range []struct {
		n, m uint64
		want string
	}{
		{1 << 31, 0, "2147483648 nodes"},
		{4, 1 << 31, "2147483648 edges"},
		{1 << 40, 1 << 40, "nodes"},
	} {
		_, err := ReadBinary(bytes.NewReader(binaryHeader(tc.n, tc.m)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("header (%d nodes, %d edges): error %v, want one naming %q", tc.n, tc.m, err, tc.want)
		}
	}
}

// TestBinaryHeaderEdgeCountNotTrusted checks that a few bytes claiming 2³⁰
// edges cannot make the reader allocate for them before any edge arrives.
func TestBinaryHeaderEdgeCountNotTrusted(t *testing.T) {
	b := binaryHeader(4, 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "edge 0") {
		t.Fatalf("error %v, want one at edge 0", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("reading a bare header allocated %d bytes, want under 1 MiB", d)
	}
}
