// Package core implements the inGRASS algorithm (paper Section III): the
// paper's primary contribution. Given an original graph G(0), its initial
// sparsifier H(0) (from internal/grass), and a target condition number C,
// the setup phase builds a multilevel resistance embedding of H(0) via LRD
// decomposition plus a cluster-connectivity sketch of the filter level; the
// update phase then processes streams of newly inserted edges in O(log N)
// each:
//
//   - Spectral distortion estimation: a new edge's distortion is its
//     weight times the estimated resistance diameter of the first LRD
//     cluster that holds both endpoints (Eq. 6 with the embedding estimate
//     in place of the exact effective resistance). The estimate is not a
//     bound: it can fall below the exact resistance. Batches are processed
//     in descending distortion order so the most spectrally-critical edges
//     are considered first.
//
//   - Spectral similarity filtering at level L (the deepest level whose
//     largest cluster has at most C/2 nodes): an edge internal to a level-L
//     cluster is discarded and its weight redistributed over that cluster's
//     sparsifier edges; an edge between two clusters already connected in H
//     is discarded and its weight merged into the existing connecting edge;
//     everything else is spectrally unique and is appended to H.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"ingrass/internal/graph"
	"ingrass/internal/lrd"
	"ingrass/internal/sketch"
	"ingrass/internal/vecmath"
)

// ErrInvalidEdge reports a new edge that UpdateBatch rejects before any
// mutation: an endpoint out of range, a self-loop, or a weight that is not
// positive and finite.
var ErrInvalidEdge = errors.New("invalid edge")

// CheckEdge returns an error matching ErrInvalidEdge if e cannot join a
// graph on n nodes: an endpoint out of range, a self-loop, or a weight that
// is not positive and finite (the graph readers' rule).
func CheckEdge(e graph.Edge, n int) error {
	switch {
	case e.U < 0 || e.U >= n || e.V < 0 || e.V >= n:
		return fmt.Errorf("endpoint out of range: (%d, %d) with %d nodes: %w", e.U, e.V, n, ErrInvalidEdge)
	case e.U == e.V:
		return fmt.Errorf("self-loop (%d, %d): %w", e.U, e.V, ErrInvalidEdge)
	case !(e.W > 0) || math.IsInf(e.W, 0):
		return fmt.Errorf("weight %v of (%d, %d) must be positive and finite: %w", e.W, e.U, e.V, ErrInvalidEdge)
	}
	return nil
}

// Config controls a Sparsifier.
type Config struct {
	// TargetCond is the desired relative condition number C. It determines
	// the filtering level; larger C filters more aggressively (coarser
	// clusters). Default 100.
	TargetCond float64
	// LRD configures the setup-phase decomposition.
	LRD lrd.Config
	// MaxFilterLevel, if positive, caps the filtering level regardless of
	// TargetCond (ablation hook).
	MaxFilterLevel int
	// DisableWeightTransfer drops the weight of discarded edges instead of
	// folding it into existing sparsifier edges (ablation hook: transfer
	// keeps H's total conductance aligned with G's but can overweight
	// popular regions, trading lambda_min for lambda_max).
	DisableWeightTransfer bool
	// Workers parallelizes the batch distortion-estimation pass (the
	// "parallel-friendly" aspect the paper highlights: per-edge estimates
	// are independent O(log N) embedding lookups). 0 or 1 = serial.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.TargetCond <= 0 {
		c.TargetCond = 100
	}
	return c
}

// filterLevel is the similarity-filtering level c selects on dec: the
// level for TargetCond, capped by MaxFilterLevel when that is set.
func (c Config) filterLevel(dec *lrd.Decomposition) int {
	l := dec.FilterLevel(c.TargetCond)
	if c.MaxFilterLevel > 0 && l > c.MaxFilterLevel {
		l = c.MaxFilterLevel
	}
	return l
}

// Action describes what the update phase did with one new edge.
type Action int

const (
	// Included: the edge was spectrally unique and was added to H.
	Included Action = iota
	// Merged: clusters already connected; weight added to the existing edge.
	Merged
	// Redistributed: intra-cluster edge; weight spread over cluster edges.
	Redistributed
)

// String renders the action name.
func (a Action) String() string {
	switch a {
	case Included:
		return "included"
	case Merged:
		return "merged"
	case Redistributed:
		return "redistributed"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Decision records the handling of one new edge (diagnostics and tests).
type Decision struct {
	Edge       graph.Edge
	Action     Action
	Distortion float64
	// Target is the H edge index that received the weight for Merged, or
	// the new edge's H index for Included, or -1 for Redistributed.
	Target int
	// Pos is the edge's index in the UpdateBatch input (0 for Update):
	// decisions come back in distortion order, Pos maps each to its edge.
	Pos int
}

// Stats accumulates update-phase counters across batches.
type Stats struct {
	Processed     int
	Included      int
	Merged        int
	Redistributed int
	// Deleted counts soft-deleted edges; Promoted counts replacement edges
	// pulled into H after bridge deletions (extension; see delete.go).
	Deleted  int
	Promoted int
}

// Sparsifier is the incremental sparsifier state. It owns both the original
// graph G (new edges are appended to it) and the sparsifier H.
type Sparsifier struct {
	G *graph.Graph
	H *graph.Graph

	cfg   Config
	dec   *lrd.Decomposition
	sk    *sketch.Structure
	stats Stats

	// hBase is a copy-on-write snapshot of H as it was when dec/sk were
	// built (setup or the latest Resparsify/CompactDeleted). It is the
	// replay basis for durable persistence: rebuilding the decomposition
	// from hBase and re-registering H's later edges in index order
	// reconstructs dec/sk exactly (see persist.go).
	hBase *graph.Graph
}

// NewSparsifier runs the setup phase over the initial sparsifier h of g.
// Both graphs must share the node set; h must be connected (a spanning
// sparsifier), as the paper assumes.
func NewSparsifier(g, h *graph.Graph, cfg Config) (*Sparsifier, error) {
	if g.NumNodes() != h.NumNodes() {
		return nil, fmt.Errorf("core: G has %d nodes, H has %d", g.NumNodes(), h.NumNodes())
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	cfg = cfg.withDefaults()
	dec, err := lrd.Build(h, cfg.LRD)
	if err != nil {
		return nil, fmt.Errorf("core: setup LRD: %w", err)
	}
	sk, err := sketch.New(dec, h)
	if err != nil {
		return nil, fmt.Errorf("core: setup sketch: %w", err)
	}
	sk.Index(cfg.filterLevel(dec))
	return &Sparsifier{G: g, H: h, cfg: cfg, dec: dec, sk: sk, hBase: h.Snapshot()}, nil
}

// FilterLevel returns the LRD level used by similarity filtering: the one
// level the sketch indexes.
func (s *Sparsifier) FilterLevel() int { return s.sk.Level() }

// Decomposition exposes the setup-phase LRD hierarchy (read-only).
func (s *Sparsifier) Decomposition() *lrd.Decomposition { return s.dec }

// Stats returns accumulated update counters.
func (s *Sparsifier) Stats() Stats { return s.stats }

// EstimateDistortion returns the spectral-distortion estimate the update
// phase would assign to a new edge (u, v, w): w times the embedding's
// resistance estimate (see lrd.Decomposition.ResistanceEstimate), which is
// not a bound on the exact resistance.
func (s *Sparsifier) EstimateDistortion(e graph.Edge) float64 {
	return e.W * s.dec.ResistanceEstimate(e.U, e.V)
}

// UpdateBatch processes one iteration of newly introduced edges: orders
// them by estimated spectral distortion (descending, ties by batch
// position), appends them all to G in that order, and applies the filtering
// rules to decide membership in H. It returns the per-edge decisions in
// processing order.
//
// A batch holding an edge that CheckEdge rejects fails with an error
// matching ErrInvalidEdge before any mutation. Edges whose endpoints lie in
// different components of H(0) are always included (their distortion
// estimate is infinite: nothing in H approximates them).
func (s *Sparsifier) UpdateBatch(batch []graph.Edge) ([]Decision, error) {
	n := s.G.NumNodes()
	for _, e := range batch {
		if err := CheckEdge(e, n); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	// Order by estimated distortion, most critical first (paper III-C1).
	// Estimates are independent embedding lookups, so large batches fan
	// out across workers.
	dist := make([]float64, len(batch))
	if w := s.cfg.Workers; w > 1 && len(batch) >= 256 {
		var wg sync.WaitGroup
		chunk := (len(batch) + w - 1) / w
		for k := 0; k < w; k++ {
			lo := k * chunk
			if lo >= len(batch) {
				break
			}
			hi := lo + chunk
			if hi > len(batch) {
				hi = len(batch)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					dist[i] = s.EstimateDistortion(batch[i])
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for i, e := range batch {
			dist[i] = s.EstimateDistortion(e)
		}
	}
	// Descending distortion, ties by batch position. Weights are finite and
	// positive and estimates are finite or +Inf, so no key is NaN.
	order := vecmath.Order(dist, true)

	// The filter reads only H and the sketch, so G takes the whole batch,
	// in processing order, in one append.
	ordered := make([]graph.Edge, len(order))
	for i, p := range order {
		ordered[i] = batch[p]
	}
	s.G.AddEdges(ordered)

	decisions := make([]Decision, 0, len(batch))
	for i, p := range order {
		d := s.applyOne(ordered[i], dist[p])
		d.Pos = int(p)
		decisions = append(decisions, d)
	}
	return decisions, nil
}

// applyOne runs the level-L filtering rules for a single new edge.
func (s *Sparsifier) applyOne(e graph.Edge, distortion float64) Decision {
	dec := Decision{Edge: e, Distortion: distortion, Target: -1}
	s.stats.Processed++

	switch {
	case s.sk.SameCluster(e.U, e.V):
		// Intra-cluster: the sparsifier already connects these nodes well
		// (resistance estimated by the cluster diameter). Spread the new
		// conductance proportionally over the cluster's internal edges,
		// read in place from the sketch's span for the cluster.
		intra := s.sk.IntraClusterEdges(e.U)
		if len(intra) == 0 {
			// Defensive: a multi-node cluster always has internal sparsifier
			// edges (it was formed by contracting them), but if the
			// hierarchy was built from a different H, fall back to include.
			break
		}
		if !s.cfg.DisableWeightTransfer && !s.H.SpreadWeight(intra, e.W) {
			break
		}
		dec.Action = Redistributed
		s.stats.Redistributed++
		return dec

	default:
		if pairEdges := s.sk.PairEdges(e.U, e.V); len(pairEdges) > 0 {
			// Redundant inter-cluster edge: spread the weight across every
			// sparsifier edge already crossing this cluster pair,
			// proportionally to their weights. Dumping it all on one
			// representative would overweight that edge relative to G and
			// drive the pencil's smallest eigenvalue toward zero.
			if !s.cfg.DisableWeightTransfer && !s.H.SpreadWeight(pairEdges, e.W) {
				break
			}
			dec.Action = Merged
			dec.Target = int(pairEdges[0])
			s.stats.Merged++
			return dec
		}
	}

	// Spectrally unique: include in H and index it in the sketch.
	ei := s.H.AddEdge(e.U, e.V, e.W)
	s.sk.Register(ei)
	dec.Action = Included
	dec.Target = ei
	s.stats.Included++
	return dec
}

// Density returns the current off-tree density of H relative to G
// (the paper's D measure).
func (s *Sparsifier) Density() float64 {
	return graph.OffTreeDensity(s.H.NumEdges(), s.H.NumNodes(), s.G.NumEdges())
}

// Resparsify rebuilds the setup-phase structures from the CURRENT H. Long
// streams slowly invalidate the embedding (H's resistances drift as edges
// accumulate); the paper treats setup as a one-time cost, but a production
// deployment can periodically amortize a rebuild. Counters are preserved.
func (s *Sparsifier) Resparsify() error {
	return s.AdoptBasis(s.H.Snapshot(), s.cfg.TargetCond)
}
