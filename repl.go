package ingrass

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"ingrass/internal/obs"
	"ingrass/internal/repl"
)

// Replication: a durable Service (one with DataDir) can ship its
// write-ahead log to any number of read-only followers. The primary
// exposes three HTTP handlers (StartReplication); a follower process
// builds its Service with Follow and serves the same read API at its
// applied generation — bit-identical to the primary's state at that
// generation, because records replay through the recovery code path.
// A thin router (internal/repl.Router, `ingrass route`) fans reads across
// healthy followers and forwards writes to the primary.

// ReplicationOptions configures the primary-side shipper.
type ReplicationOptions struct {
	// Heartbeat is the idle-stream heartbeat interval (default 2s).
	Heartbeat time.Duration
	// StreamWindow bounds one tail-streaming response; followers resume
	// seamlessly (default 30s).
	StreamWindow time.Duration
	// RetainCapBytes bounds the checkpoint-covered WAL bytes one follower
	// may pin against pruning; past it the follower is evicted and must
	// re-bootstrap from a checkpoint, so a dead follower cannot wedge GC
	// (default 256 MiB).
	RetainCapBytes int64
	// FollowerTTL expires followers that stopped fetching (default 60s).
	FollowerTTL time.Duration
}

// ReplicationHandlers are the primary's replication endpoints, for the
// caller to mount on its HTTP mux (GET /repl/checkpoint, /repl/segments,
// /repl/status).
type ReplicationHandlers struct {
	Checkpoint http.HandlerFunc
	Segments   http.HandlerFunc
	Status     http.HandlerFunc
}

// StartReplication turns a durable service into a replication primary and
// returns the HTTP handlers to mount. It requires DataDir (the WAL is the
// replication log) and may be called at most once per service.
func (s *Service) StartReplication(opts ReplicationOptions) (*ReplicationHandlers, error) {
	if s.store == nil {
		return nil, fmt.Errorf("ingrass: replication requires a durable service (DataDir)")
	}
	if s.replPrimary != nil {
		return nil, fmt.Errorf("ingrass: replication already started")
	}
	p := repl.NewPrimary(s.store, repl.PrimaryOptions{
		Heartbeat:      opts.Heartbeat,
		StreamWindow:   opts.StreamWindow,
		RetainCapBytes: opts.RetainCapBytes,
		FollowerTTL:    opts.FollowerTTL,
	})
	s.replPrimary = p
	s.metrics.GaugeFunc("ingrass_repl_followers",
		"replication followers currently registered on this primary",
		func() float64 { return float64(p.Followers()) })
	s.metrics.GaugeFunc("ingrass_repl_retained_bytes",
		"checkpoint-covered WAL bytes pinned by the slowest follower",
		func() float64 { return float64(p.RetainedBytes()) })
	s.metrics.CounterFunc("ingrass_repl_follower_evictions_total",
		"followers evicted by TTL expiry or the retention cap",
		func() float64 { return float64(p.Evictions()) })
	s.replHandlers = &ReplicationHandlers{
		Checkpoint: p.HandleCheckpoint,
		Segments:   p.HandleSegments,
		Status:     p.HandleStatus,
	}
	return s.replHandlers, nil
}

// Replication returns the handlers from a prior StartReplication, or nil.
func (s *Service) Replication() *ReplicationHandlers { return s.replHandlers }

// FollowOptions configures a follower Service.
type FollowOptions struct {
	// Primary is the primary's base URL (e.g. http://127.0.0.1:8080).
	Primary string
	// ID is the stable identity the primary keys segment retention on; an
	// empty ID follows anonymously (the primary may prune past it, forcing
	// checkpoint re-bootstraps).
	ID string
	// MaxStaleness bounds how long reads keep being served after contact
	// with the primary is lost: past it, reads fail with ErrReplicaStale
	// until the connection heals. 0 serves the last applied generation
	// indefinitely.
	MaxStaleness time.Duration
	// FetchTimeout bounds one checkpoint fetch (default 60s).
	FetchTimeout time.Duration
	// BackoffMin and BackoffMax shape the reconnect backoff envelope
	// (defaults 50ms and 10s); BackoffSeed pins its jitter for tests.
	BackoffMin  time.Duration
	BackoffMax  time.Duration
	BackoffSeed int64

	// Workers is the solver-parallelism default, as Options.Workers.
	Workers int
	// RetainSnapshots, Solve, and Batch configure the read side exactly as
	// their ServiceOptions counterparts.
	RetainSnapshots int
	Solve           SolveOptions
	Batch           BatchOptions
}

// Follow bootstraps a read-only follower Service from a replication
// primary: fetch its newest checkpoint, restore, then stream and apply the
// record tail continuously. The call blocks (honoring ctx) until the first
// bootstrap succeeds; the returned Service serves reads immediately and
// converges to the primary's generation in the background. Write methods
// fail with ErrReadOnlyReplica; Close stops replication and the engine.
func Follow(ctx context.Context, opts FollowOptions) (*Service, error) {
	metrics := obs.NewRegistry()
	so := ServiceOptions{
		RetainSnapshots: opts.RetainSnapshots,
		Solve:           opts.Solve,
		Batch:           opts.Batch,
	}
	so.Workers = opts.Workers
	eopts := so.engineOptions(so.Solve)
	eopts.Obs = metrics
	f, err := repl.StartFollower(ctx, repl.FollowerOptions{
		Primary:      opts.Primary,
		ID:           opts.ID,
		Engine:       eopts,
		MaxStaleness: opts.MaxStaleness,
		FetchTimeout: opts.FetchTimeout,
		BackoffMin:   opts.BackoffMin,
		BackoffMax:   opts.BackoffMax,
		BackoffSeed:  opts.BackoffSeed,
	})
	if err != nil {
		return nil, err
	}
	metrics.GaugeFunc("ingrass_repl_lag_generations",
		"generations the replica trails the primary's last heard position",
		func() float64 { return float64(f.LagGenerations()) })
	metrics.GaugeFunc("ingrass_repl_lag_seconds",
		"seconds since the last successful exchange with the primary",
		func() float64 { return f.LagSeconds() })
	metrics.GaugeFunc("ingrass_repl_ready",
		"1 once the first full catch-up with the primary completed",
		func() float64 {
			if f.Ready() {
				return 1
			}
			return 0
		})
	metrics.CounterFunc("ingrass_repl_applied_records_total",
		"primary WAL records applied by this replica",
		func() float64 { return float64(f.Stats().AppliedRecords) })
	metrics.CounterFunc("ingrass_repl_bootstraps_total",
		"checkpoint bootstraps (initial and re-bootstraps after pruning)",
		func() float64 { return float64(f.Stats().Bootstraps) })
	metrics.CounterFunc("ingrass_repl_fetch_errors_total",
		"failed replication fetches (each one backs off and retries)",
		func() float64 { return float64(f.Stats().FetchErrors) })
	metrics.CounterFunc("ingrass_repl_gap_refusals_total",
		"records refused because their generation did not follow the replica's",
		func() float64 { return float64(f.Stats().GapRefusals) })
	metrics.CounterFunc("ingrass_repl_crc_errors_total",
		"stream frames dropped by CRC or framing verification",
		func() float64 { return float64(f.Stats().CRCErrors) })
	return &Service{eng: f.Engine(), metrics: metrics, follower: f}, nil
}

// Role reports how this service participates in replication: "primary"
// (StartReplication was called), "follower" (built by Follow), or
// "standalone".
func (s *Service) Role() string {
	switch {
	case s.follower != nil:
		return "follower"
	case s.replPrimary != nil:
		return "primary"
	default:
		return "standalone"
	}
}

// Ready reports whether the service should receive routed traffic: always
// true for primaries and standalone services; for followers, true once the
// first full catch-up with the primary completed (sticky). Routers and
// orchestrators use it to keep cold followers out of rotation.
func (s *Service) Ready() bool {
	if s.follower != nil {
		return s.follower.Ready()
	}
	return true
}

// readGate guards follower reads with the staleness bound: a partitioned
// follower keeps serving its last applied generation until MaxStaleness,
// then refuses with ErrReplicaStale until contact with the primary heals.
func (s *Service) readGate() error {
	if s.follower == nil {
		return nil
	}
	if err := s.follower.StaleErr(); err != nil {
		return fmt.Errorf("ingrass: %w", err)
	}
	return nil
}
