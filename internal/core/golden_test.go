//go:build amd64

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"ingrass/internal/gen"
	"ingrass/internal/graph"
	"ingrass/internal/grass"
	"ingrass/internal/krylov"
	"ingrass/internal/lrd"
)

// TestGoldenSetupDeterminism pins every bit the setup phase produces on two
// fixed graphs: the GRASS H(0) (low-stretch and max-weight backbones), every
// LRD level's cluster ids, diameters and budgets, the level-1 Krylov
// resistance estimates, and the decisions and final H of two seeded 10-batch
// update streams: long-range chords (Stream) and short local wires
// (LocalStream). Local wires land inside filter-level clusters, so only the
// second pins the order of the redistribution weight sums.
//
// Why exact bits: a checkpoint stores only hBase, and recovery, WAL replay
// of maintenance records and every replica rebuild the LRD hierarchy and the
// sketch from it (persist.go, setup.go). Those rebuilds agree with the live
// engine only if the setup phase is a pure function of its input bits, so a
// change that reorders a sort tie or a floating-point sum is a change to
// durable behaviour, not a refactor. A change that needs new hashes breaks
// replay of existing checkpoints and must say so; an optimisation never
// re-records them.
//
// The vecmath reductions run in one 4-lane order on every host, so there is
// one set of hashes: the one AVX2 hosts recorded before the assembly was
// retired, so their data directories replay unchanged. The numeric kernels
// write each product float64(x*y), which Go never fuses into a multiply-add.
// Each graph is checked under both amd64 ISA levels: simd=false is a
// GOAMD64=v1 build, simd=true a GOAMD64=v3 build, whose instruction set has
// AVX2 and FMA. The level this binary was not built for runs in a child
// `go test` with GOAMD64 set. The build constraint keeps the test to amd64,
// the only architecture the hashes have been checked on.
func TestGoldenSetupDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
		want  goldenHashes
	}{
		{"delaunay_n14", 0.5, goldenHashes{
			GrassLowStretch: 0x855dbd593a15201f, GrassMaxWeight: 0x26e92cfa4c05aff0,
			LRD: 0x63110aa7b024bb77, Embedding: 0xac6fae92974f1878, Stream: 0x7084062600db6833,
			LocalStream: 0x3c8238e7e7491487,
		}},
		{"social_ba", 0.25, goldenHashes{
			GrassLowStretch: 0x7172f22a7c7e0f9c, GrassMaxWeight: 0xbfbbc7c6c5e82a4,
			LRD: 0x4feffd7128698f3b, Embedding: 0x893c82e659501d38, Stream: 0x7d977c68f46451d2,
			LocalStream: 0xaccc984c6c08632e,
		}},
	}
	for _, simd := range []bool{false, true} {
		for _, tc := range cases {
			name := fmt.Sprintf("%s/simd=%v", tc.name, simd)
			t.Run(name, func(t *testing.T) {
				if simd != builtForV3 {
					runGoldenChild(t, name, simd)
					return
				}
				if got := setupHashes(t, tc.name, tc.scale); got != tc.want {
					t.Errorf("setup output changed:\n got  %#v\n want %#v", got, tc.want)
				}
			})
		}
	}
}

// builtForV3 reports whether this test binary was built with GOAMD64=v3 or
// higher; golden_v3_test.go sets it.
var builtForV3 bool

// runGoldenChild runs the golden subtest name in a `go test` of this package
// built with GOAMD64=v3 if v3, else v1, and fails unless that subtest passed.
func runGoldenChild(t *testing.T, name string, v3 bool) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command to build the other GOAMD64 level: %v", err)
	}
	level := "v1"
	if v3 {
		level = "v3"
	}
	pattern := "^TestGoldenSetupDeterminism$"
	for _, part := range strings.Split(name, "/") {
		pattern += "/^" + regexp.QuoteMeta(part) + "$"
	}
	cmd := exec.Command(goBin, "test", "-count=1", "-v", "-run", pattern, ".")
	cmd.Env = append(os.Environ(), "GOAMD64="+level)
	out, err := cmd.CombinedOutput()
	if bytes.Contains(out, []byte("microarchitecture support")) {
		t.Skipf("this CPU cannot run a GOAMD64=%s binary", level)
	}
	if err != nil || !bytes.Contains(out, []byte("--- PASS: TestGoldenSetupDeterminism/"+name+" ")) {
		t.Errorf("GOAMD64=%s go test -run %s: %v\n%s", level, pattern, err, out)
	}
}

type goldenHashes struct {
	GrassLowStretch, GrassMaxWeight, LRD, Embedding, Stream, LocalStream uint64
}

func setupHashes(t *testing.T, name string, scale float64) goldenHashes {
	t.Helper()
	tc, err := gen.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tc.Build(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := gen.Stream(g, gen.StreamConfig{
		Kind: gen.StreamUniform, Count: g.NumEdges() / 10, Batches: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := gen.Stream(g, gen.StreamConfig{
		Kind: gen.StreamLocal, HopRadius: 10, Count: g.NumEdges() / 10, Batches: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out goldenHashes

	mw, err := grass.Sparsify(g, grass.Config{
		TargetDensity: 0.10, Tree: grass.TreeMaxWeight, SimilarityFilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out.GrassMaxWeight = hashGrass(mw)

	res, err := grass.InitialSparsifier(g, 0.10, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := res.H
	out.GrassLowStretch = hashGrass(res)

	cfg := Config{LRD: lrd.Config{Krylov: krylov.Config{Seed: 1}}}
	dec, err := lrd.Build(h, cfg.LRD)
	if err != nil {
		t.Fatal(err)
	}
	hs := fnv.New64a()
	for l := 0; l < dec.Levels; l++ {
		putU64(hs, uint64(dec.NumClusters[l]))
		putF64(hs, dec.Budget[l])
		for v := 0; v < dec.N; v++ {
			putU64(hs, uint64(dec.ClusterID(l, v)))
		}
		for c := range dec.NumClusters[l] {
			putF64(hs, dec.Diameter(l, int32(c)))
		}
	}
	out.LRD = hs.Sum64()

	// lrd.Build seeds level l's embedding with Seed + l*0x9e37.
	emb, err := krylov.NewEmbedding(h, krylov.Config{Seed: 1 + 0x9e37})
	if err != nil {
		t.Fatal(err)
	}
	hs = fnv.New64a()
	for _, r := range emb.EstimateEdges(h, 0) {
		putF64(hs, r)
	}
	out.Embedding = hs.Sum64()

	// NewSparsifier updates the graphs it is given, so the local stream
	// starts from copies taken before the first one runs.
	gl, hl := g.Clone(), h.Clone()
	out.Stream = streamHash(t, g, h, cfg, stream)
	out.LocalStream = streamHash(t, gl, hl, cfg, local)
	return out
}

// streamHash runs stream through a sparsifier of (g, h) and hashes every
// decision and the final H.
func streamHash(t *testing.T, g, h *graph.Graph, cfg Config, stream [][]graph.Edge) uint64 {
	t.Helper()
	s, err := NewSparsifier(g, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := fnv.New64a()
	for _, batch := range stream {
		decs, err := s.UpdateBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decs {
			putEdge(hs, d.Edge)
			putU64(hs, uint64(d.Action))
			putF64(hs, d.Distortion)
			putU64(hs, uint64(d.Target))
		}
	}
	for _, e := range s.H.All() {
		putEdge(hs, e)
	}
	return hs.Sum64()
}

func hashGrass(r *grass.Result) uint64 {
	hs := fnv.New64a()
	for _, e := range r.H.All() {
		putEdge(hs, e)
	}
	for _, d := range r.Distortion {
		putF64(hs, d)
	}
	putU64(hs, uint64(r.SkippedRedundant))
	return hs.Sum64()
}

func putEdge(h hash.Hash64, e graph.Edge) {
	putU64(h, uint64(e.U))
	putU64(h, uint64(e.V))
	putF64(h, e.W)
}

func putF64(h hash.Hash64, f float64) { putU64(h, math.Float64bits(f)) }

func putU64(h hash.Hash64, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}
