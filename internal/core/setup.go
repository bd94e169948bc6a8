package core

import (
	"fmt"

	"ingrass/internal/graph"
	"ingrass/internal/lrd"
	"ingrass/internal/sketch"
)

// SetupBasis is a setup phase (LRD decomposition + filter-level sketch) built
// offline against a frozen copy-on-write snapshot of the sparsifier. It is
// the unit of background maintenance: a controller snapshots H, runs
// BuildSetup without holding any engine lock, and the writer later adopts
// the result in O(delta) via AdoptSetup — the only in-lock work is
// registering the edges admitted while the build ran.
//
// A basis is single-use: AdoptSetup consumes it.
type SetupBasis struct {
	cfg   Config
	hBase *graph.Graph
	dec   *lrd.Decomposition
	// sk is indexed at the filtering level the adopter will use.
	sk *sketch.Structure
}

// BuildSetup runs the setup phase (lrd.Build + the sketch's pair and span
// indexes at the filtering level) over the frozen sparsifier snapshot
// hBase. It mutates nothing and may run concurrently with updates
// to the live sparsifier the snapshot was taken from. cfg.TargetCond
// selects the filtering level the adopting sparsifier will use; the other
// fields must match the adopter's configuration.
func BuildSetup(hBase *graph.Graph, cfg Config) (*SetupBasis, error) {
	if hBase.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty setup basis")
	}
	cfg = cfg.withDefaults()
	dec, err := lrd.Build(hBase, cfg.LRD)
	if err != nil {
		return nil, fmt.Errorf("core: basis LRD: %w", err)
	}
	sk, err := sketch.New(dec, hBase)
	if err != nil {
		return nil, fmt.Errorf("core: basis sketch: %w", err)
	}
	sk.Index(cfg.filterLevel(dec))
	return &SetupBasis{cfg: cfg, hBase: hBase, dec: dec, sk: sk}, nil
}

// TargetCond returns the target condition number the basis was built for.
func (b *SetupBasis) TargetCond() float64 { return b.cfg.TargetCond }

// HBase returns the frozen sparsifier snapshot the basis was built from. It
// is the replay anchor a durable maintenance record must carry (see
// internal/wal): rebuilding from these exact bytes and re-registering the
// live sparsifier's later edges reconstructs the adopted state bit-exactly.
func (b *SetupBasis) HBase() *graph.Graph { return b.hBase }

// AdoptSetup swaps the sparsifier's setup structures for a basis built
// offline on an earlier snapshot of its own H. The sketch is advanced over
// the edges H gained since the snapshot (endpoint-only registration, so the
// result is bit-identical to a fresh setup over the current H — the
// persist.go invariant), the filtering level becomes the one the basis
// indexed for its TargetCond, and the basis's snapshot becomes the new
// persistence anchor (hBase). G, H, and the accumulated counters are
// untouched. The catch-up touches only the basis's one indexed level, so
// the swap costs O(|H delta|), never an O(|E_H|) index build. A caught-up
// edge inside a filtering-level cluster marks the span index stale; the
// first redistribution after the swap rebuilds it.
//
// The caller must guarantee b.hBase is a snapshot of this sparsifier's H:
// the live H must extend it by index (soft deletion never removes edges, so
// every historical snapshot is an index prefix of the present).
func (s *Sparsifier) AdoptSetup(b *SetupBasis) error {
	if b.sk == nil {
		return fmt.Errorf("core: setup basis already adopted")
	}
	if b.hBase.NumNodes() != s.H.NumNodes() {
		return fmt.Errorf("core: basis has %d nodes, sparsifier %d", b.hBase.NumNodes(), s.H.NumNodes())
	}
	if b.hBase.NumEdges() > s.H.NumEdges() {
		return fmt.Errorf("core: basis indexes %d edges, sparsifier has only %d", b.hBase.NumEdges(), s.H.NumEdges())
	}
	if err := b.sk.Advance(s.H); err != nil {
		return err
	}
	s.cfg = b.cfg
	s.dec = b.dec
	s.sk = b.sk
	s.hBase = b.hBase
	b.sk = nil
	return nil
}

// AdoptBasis rebuilds the setup structures from the given frozen snapshot
// and adopts them with TargetCond overriding the configured target. It is
// the WAL-replay entry point for maintenance records: replaying
// AdoptBasis(rec.HBase, rec.TargetCond) after the preceding batches
// reproduces, bit for bit, the state a live background swap left behind,
// because the live swap was BuildSetup on those same snapshot bytes plus an
// endpoint-only sketch catch-up.
func (s *Sparsifier) AdoptBasis(hBase *graph.Graph, targetCond float64) error {
	cfg := s.cfg
	cfg.TargetCond = targetCond
	b, err := BuildSetup(hBase, cfg)
	if err != nil {
		return err
	}
	return s.AdoptSetup(b)
}

// Config returns the sparsifier's (normalized) configuration.
func (s *Sparsifier) Config() Config { return s.cfg }
