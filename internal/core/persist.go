package core

import (
	"fmt"

	"ingrass/internal/graph"
	"ingrass/internal/lrd"
	"ingrass/internal/sketch"
)

// PersistentState is everything a Sparsifier needs to be reconstructed
// exactly: the three graphs (current G, current H, and the setup-basis
// hBase), the normalized configuration, the chosen filter level, and the
// cumulative counters. The multilevel LRD decomposition and the
// cluster-connectivity sketch are deliberately NOT serialized — they are a
// deterministic function of (HBase, Config) plus the index-ordered
// registration of H's post-setup edges, so RestoreSparsifier rebuilds them
// instead. That keeps the on-disk format small (three edge lists) and
// immune to internal layout changes in lrd/sketch.
type PersistentState struct {
	// Config is the sparsifier configuration after default normalization.
	Config Config
	// FilterLevel is the similarity-filtering level in use.
	FilterLevel int
	// Stats are the cumulative update counters.
	Stats Stats
	// G and H are the current original graph and sparsifier.
	G, H *graph.Graph
	// HBase is the sparsifier as it was when the decomposition was last
	// (re)built: at setup, or at the latest Resparsify/CompactDeleted.
	HBase *graph.Graph
}

// PersistentState captures the sparsifier's durable state. The returned
// graphs are copy-on-write snapshots: taking one copies two page tables, not
// the graph, and later mutations of the live sparsifier are invisible to the
// captured state — which is what lets a server checkpoint while it keeps
// serving writes.
func (s *Sparsifier) PersistentState() PersistentState {
	return PersistentState{
		Config:      s.cfg,
		FilterLevel: s.FilterLevel(),
		Stats:       s.stats,
		G:           s.G.Snapshot(),
		H:           s.H.Snapshot(),
		HBase:       s.hBase.Snapshot(),
	}
}

// RestoreSparsifier reconstructs a Sparsifier from a captured state. The
// reconstruction is exact: lrd.Build and sketch.New are deterministic given
// identical inputs, HBase carries the decomposition's input graph with
// bit-exact weights, and indexing the current H registers its edges in
// index order — the same order the live engine registered them in (Register
// is always called immediately after H.AddEdge, AddEdge appends, and
// Register rejects any other order).
// A restored sparsifier therefore makes bit-identical filtering decisions
// on any subsequent update stream, which is what write-ahead-log replay
// relies on.
//
// RestoreSparsifier takes ownership of the graphs in st.
func RestoreSparsifier(st PersistentState) (*Sparsifier, error) {
	if st.G == nil || st.H == nil || st.HBase == nil {
		return nil, fmt.Errorf("core: restore: missing graph state")
	}
	n := st.G.NumNodes()
	if st.H.NumNodes() != n || st.HBase.NumNodes() != n {
		return nil, fmt.Errorf("core: restore: node counts disagree (G=%d, H=%d, HBase=%d)",
			n, st.H.NumNodes(), st.HBase.NumNodes())
	}
	if n == 0 {
		return nil, fmt.Errorf("core: restore: empty graph")
	}
	if st.H.NumEdges() < st.HBase.NumEdges() {
		return nil, fmt.Errorf("core: restore: H has %d edges but HBase has %d (H only ever grows)",
			st.H.NumEdges(), st.HBase.NumEdges())
	}
	dec, err := lrd.Build(st.HBase, st.Config.LRD)
	if err != nil {
		return nil, fmt.Errorf("core: restore LRD: %w", err)
	}
	// Setup picks the filter level from (HBase, Config) alone, so restore
	// accepts exactly that level. A one-node basis has no level 1, yet setup
	// picks level 1 for it, so the check is not a hierarchy range.
	if want := st.Config.filterLevel(dec); st.FilterLevel != want {
		return nil, fmt.Errorf("core: restore: filter level %d, but setup picks level %d for this basis and config",
			st.FilterLevel, want)
	}
	sk, err := sketch.New(dec, st.H)
	if err != nil {
		return nil, fmt.Errorf("core: restore sketch: %w", err)
	}
	sk.Index(st.FilterLevel)
	return &Sparsifier{
		G:     st.G,
		H:     st.H,
		cfg:   st.Config,
		dec:   dec,
		sk:    sk,
		stats: st.Stats,
		hBase: st.HBase,
	}, nil
}
