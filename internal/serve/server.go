// Package serve turns a kbtable engine into a long-running HTTP search
// service: a JSON POST /v1/search endpoint with per-request timeouts, a
// POST /v1/update endpoint that applies live knowledge-base mutations with an
// atomic epoch swap (in-flight searches finish on their snapshot), a
// GET /v1/healthz endpoint, a result cache over normalized queries and a
// bounded prepared-handle registry (both the one epoch-fenced, word-tagged
// cache of internal/cache), and graceful shutdown. cmd/kbserve is the
// daemon entry point.
package serve

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/cache"
)

// Engine is the engine surface the HTTP layer runs on: exactly the facade
// methods this package and internal/cluster's node (which executes shard
// legs against CurrentEngine) call. *kbtable.Engine implements it. It is
// an interface so that Config.Engine can be a decorator embedding
// *kbtable.Engine and overriding single methods (the benchmark's tracer,
// tests that park or time out a search); every engine an update publishes
// is the plain *kbtable.Engine the apply returned.
type Engine interface {
	SearchPlan(ctx context.Context, query string, opts kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error)
	Plan(ctx context.Context, query string, opts kbtable.SearchOptions) (kbtable.PlanInfo, error)
	SearchDistributed(ctx context.Context, exec kbtable.ShardExecutor, query string, opts kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error)
	PlanDistributed(ctx context.Context, exec kbtable.ShardExecutor, query string, opts kbtable.SearchOptions) (kbtable.PlanInfo, error)
	PrepareContext(ctx context.Context, query string, opts kbtable.SearchOptions) (*kbtable.PreparedQuery, error)
	QueryWords(query string) []string

	ApplyUpdate(u kbtable.Update) (*kbtable.Engine, kbtable.UpdateResult, error)
	ApplyLoggedAsync(s *kbtable.Store, u kbtable.Update) (*kbtable.Engine, kbtable.UpdateResult, *kbtable.Commit, error)
	Checkpoint(s *kbtable.Store) (kbtable.CheckpointStats, error)
	Seq() uint64

	ShardInfo() kbtable.ShardInfo
	OwnedShards() []int
	Complete() bool
	IndexStats() kbtable.IndexStats
	PlanCacheStats() kbtable.PlanCacheStats

	ProbeShard(ctx context.Context, si int, query string, opts kbtable.SearchOptions) (kbtable.ShardPlanStats, error)
	ScatterShard(ctx context.Context, si int, algorithm kbtable.Algorithm, query string, opts kbtable.SearchOptions) (*kbtable.ShardPartial, error)
}

// Config configures a Server.
type Config struct {
	// Engine answers the queries and applies the updates. Required.
	Engine Engine
	// D is the engine's height threshold; requests naming a different d
	// are rejected (the index is built for exactly one d).
	D int
	// CacheSize bounds the LRU result cache (entries); default 512,
	// negative disables caching.
	CacheSize int
	// Timeout bounds one search request; default 10s.
	Timeout time.Duration
	// MaxK caps the k a request may ask for; default 1000.
	MaxK int
	// MaxRows caps table rows materialized per answer when the request
	// does not set max_rows; default 50 (0 would materialize every row).
	MaxRows int
	// ReadOnly disables POST /v1/update. It gates only the HTTP handler:
	// the replication path (Apply) keeps writing through a server whose
	// own update endpoint is closed to clients.
	ReadOnly bool
	// MaxUpdateOps caps the ops in one update batch; default 10000.
	MaxUpdateOps int
	// DefaultAlgorithm answers requests that omit "algorithm"; accepts
	// the same wire names as the request field ("patternenum", "le",
	// "auto", …). Empty means "patternenum".
	DefaultAlgorithm string
	// Store, when non-nil, makes updates durable: every accepted
	// /v1/update batch is appended to the store's write-ahead log (fsync)
	// before the new epoch is published, and a background checkpoint
	// rewrites the snapshot — truncating the WAL — whenever the log
	// grows CheckpointEvery records past the last snapshot.
	Store *kbtable.Store
	// CheckpointEvery is the WAL-records-behind-snapshot threshold that
	// triggers a background checkpoint; default 64, negative disables
	// automatic checkpoints (CheckpointNow still works).
	CheckpointEvery int
	// MaxConcurrent bounds how many searches execute at once (admission
	// control); default max(8, 4×GOMAXPROCS), negative disables the gate.
	MaxConcurrent int
	// MaxQueue bounds searches waiting for an execution slot before new
	// arrivals are shed with 429; default 512.
	MaxQueue int
	// QueueTimeout bounds one search's wait for an execution slot
	// (shed with 429 beyond it); default Timeout.
	QueueTimeout time.Duration
	// Distributor, when non-nil, turns leader executions into cluster
	// scatter-gather: each shard's planner probe and enumerate→aggregate
	// leg is routed through the executor (internal/cluster's Router) to
	// remote owner nodes, and the partials gather on the local engine.
	// Legs that fail re-run locally inside the engine, so answers stay
	// bit-identical to single-node execution regardless of node health.
	// Requires a complete Engine (every shard resident).
	Distributor kbtable.ShardExecutor
	// Cluster, when non-nil, is consulted per /v1/healthz and /v1/shards
	// request for this process's cluster role, identity, and
	// replication position.
	Cluster func() *api.ClusterHealth
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 50
	}
	if c.MaxUpdateOps <= 0 {
		c.MaxUpdateOps = 10000
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
		if c.MaxConcurrent < 8 {
			c.MaxConcurrent = 8
		}
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 512
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = c.Timeout
	}
	return c
}

// engineState is one published epoch: an immutable engine snapshot plus
// its sequence number. Searches load it once and use it end to end, so an
// in-flight query keeps its snapshot even while an update swaps in the
// next epoch.
type engineState struct {
	eng   Engine
	epoch uint64
}

// maxPrepared bounds the prepared-handle registry; past it the least
// recently used handle is evicted and answers 410 like an expired one.
const maxPrepared = 512

// Server is the HTTP search daemon behind the /v1 API.
type Server struct {
	cfg Config
	// cache holds computed results, tagged with their query words. Both
	// caches advance one epoch per publish, in step with cur, so a
	// request passes its pinned epoch and a superseded one is refused.
	cache    *cache.Cache[*cacheEntry]
	start    time.Time
	requests atomic.Uint64
	updates  atomic.Uint64
	hs       *http.Server

	// Planner counters for /v1/healthz: how many searches asked for
	// "auto" and what the planner resolved them to.
	autoRequests atomic.Uint64
	autoChosePE  atomic.Uint64
	autoChoseLE  atomic.Uint64

	// boundPruned accumulates PlanInfo.BoundPruned across executed
	// searches (leader runs and prepared executions; cache hits and
	// coalesced followers did no enumeration).
	boundPruned atomic.Int64

	// Prepared-query registry, keyed by handle id. Handles live exactly
	// one epoch: every publish flushes it, and a prepare racing an update
	// has its registration refused.
	prepared         *cache.Cache[*preparedHandle]
	preparedSeq      atomic.Uint64
	prepares         atomic.Uint64
	preparedSearches atomic.Uint64

	// Durability counters: completed background/explicit checkpoints,
	// failures, the busy latch that keeps at most one background
	// checkpoint goroutine alive, and the mutex that serializes actual
	// checkpoint work (background vs CheckpointNow on shutdown).
	checkpoints  atomic.Uint64
	ckptErrors   atomic.Uint64
	ckptBusy     atomic.Bool
	ckptRunMu    sync.Mutex
	lastCkptUnix atomic.Int64

	// cur is the published epoch.
	//
	// Updates are pipelined: applyMu serializes the in-memory apply
	// chain (tail is the newest applied-but-unpublished engine), the
	// WAL fsync happens OUTSIDE applyMu so concurrent updates share one
	// group commit, and pubMu/pubCond re-serialize publication in epoch
	// order — searches always observe epochs 1, 2, 3, … with no gaps.
	cur     atomic.Pointer[engineState]
	applyMu sync.Mutex
	tail    *engineState // nil = no unpublished state; rebase off cur
	pubMu   sync.Mutex
	pubCond *sync.Cond

	// Serving-path machinery: read coalescing and admission control.
	flights flightGroup
	gate    *gate // nil = admission control disabled
	metrics metrics
}

// New returns a Server ready to ListenAndServe.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    cache.New[*cacheEntry](cfg.CacheSize),
		start:    time.Now(),
		prepared: cache.New[*preparedHandle](maxPrepared),
	}
	s.pubCond = sync.NewCond(&s.pubMu)
	if cfg.MaxConcurrent > 0 {
		s.gate = newGate(cfg.MaxConcurrent, cfg.MaxQueue)
	}
	s.cur.Store(&engineState{eng: cfg.Engine})
	// A server recovered with a long WAL suffix should not wait for the
	// next update to reclaim it: evaluate the checkpoint lag once at
	// startup too.
	s.maybeCheckpoint()
	s.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.Timeout + 5*time.Second,
		WriteTimeout:      cfg.Timeout + 5*time.Second,
	}
	return s
}

// Handler returns the route table, usable directly in tests or behind
// custom middleware. Every endpoint lives under /v1; any other path
// answers the JSON 404 envelope, not net/http's text 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(path, name string, h http.HandlerFunc) {
		mux.Handle("/"+api.Version+path, s.instrument(name, h))
	}
	route("/search", "search", s.handleSearch)
	route("/prepare", "prepare", s.handlePrepare)
	route("/update", "update", s.handleUpdate)
	route("/healthz", "healthz", s.handleHealthz)
	route("/metrics", "metrics", s.handleMetrics)
	route("/shards", "shards", s.handleShards)
	route("/wal/segments", "wal_segments", s.handleWALSegments)
	mux.Handle("/", s.instrument("notfound", handleNotFound))
	return mux
}

// CurrentEngine returns the currently published engine snapshot and its
// epoch. Cluster node handlers execute shard legs against exactly this
// pinned pair, so a concurrently applied update can never mix epochs
// inside one scattered query.
func (s *Server) CurrentEngine() (Engine, uint64) {
	st := s.cur.Load()
	return st.eng, st.epoch
}

// Epoch returns the currently published epoch number.
func (s *Server) Epoch() uint64 { return s.cur.Load().epoch }

// SetHandler replaces what ListenAndServe serves (a cluster node wraps
// Handler with the coordinator-facing leg endpoints). Call it before
// ListenAndServe.
func (s *Server) SetHandler(h http.Handler) { s.hs.Handler = h }

// ListenAndServe blocks serving on addr until Shutdown or a listener
// error; it returns nil after a clean shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.hs.Addr = addr
	err := s.hs.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests and stops the listener, bounded by
// ctx (the graceful-shutdown half of ListenAndServe).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.hs.Shutdown(ctx)
}

// The wire types live in internal/api — the versioned /v1 contract
// shared with internal/client and internal/cluster — and are aliased
// here so server code (and its tests) keep their historical names.
type (
	SearchRequest   = api.SearchRequest
	SearchAnswer    = api.SearchAnswer
	SearchResponse  = api.SearchResponse
	PlanOut         = api.PlanOut
	PrepareRequest  = api.PrepareRequest
	PrepareResponse = api.PrepareResponse
	UpdateRequest   = api.UpdateRequest
	UpdateResponse  = api.UpdateResponse

	CacheStats       = api.CacheStats
	ShardHealth      = api.ShardHealth
	IndexHealth      = api.IndexHealth
	PlannerHealth    = api.PlannerHealth
	PlanCacheHealth  = api.PlanCacheHealth
	PreparedHealth   = api.PreparedHealth
	DurabilityHealth = api.DurabilityHealth
	ServingHealth    = api.ServingHealth
	HealthResponse   = api.HealthResponse
)
