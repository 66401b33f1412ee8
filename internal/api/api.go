// Package api is the versioned wire contract of the kbtable HTTP
// surface: every request/response body exchanged on the /v1 endpoints,
// the structured error envelope with its stable machine codes, and the
// coordinator↔node cluster protocol. internal/serve implements the
// contract, internal/client speaks it, and internal/cluster routes
// scatter-gather legs over it; none of them defines wire shapes of
// their own. Changing a field here is an API change — the schema golden
// (testdata/api/v1.golden) pins the serialized form.
package api

import (
	"context"
	"fmt"
	"strings"

	"kbtable"
)

// Version is the current wire API version, the leading path segment of
// every endpoint (e.g. /v1/search). Nothing is served outside it: any
// other path answers 404 not_found.
const Version = "v1"

// Stable machine-readable error codes, carried in ErrorBody.Code.
// Clients dispatch on these, never on message text or HTTP status alone.
const (
	// CodeBadRequest: the request is malformed or names impossible
	// parameters (bad JSON, wrong content type, k over the limit, …).
	CodeBadRequest = "bad_request"
	// CodeShed: admission control shed the request under overload.
	// Retry after ErrorBody.RetryAfterMS (also on the Retry-After
	// header, in seconds).
	CodeShed = "shed"
	// CodeStaleEpoch: the node's applied state does not match the epoch
	// or WAL sequence the request pinned (cluster scatter legs, or a
	// prepare racing an update). Retry against the current state.
	CodeStaleEpoch = "stale_epoch"
	// CodePreparedGone: the prepared_id is unknown, or its handle was
	// expired (an update superseded its epoch) or evicted (the bounded
	// registry dropped its least recently used handle). Re-prepare and
	// retry.
	CodePreparedGone = "prepared_gone"
	// CodeDurability: the update could not be made durable (WAL append
	// or fsync failed); the server refuses further updates.
	CodeDurability = "durability"
	// CodeNotFound / CodeMethodNotAllowed: unknown path, wrong verb.
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeTimeout / CodeCanceled: the query ran out of time, or the
	// client went away while it was queued or running.
	CodeTimeout  = "timeout"
	CodeCanceled = "canceled"
	// CodeReadOnly: this server does not accept updates (a follower node
	// or -readonly).
	CodeReadOnly = "read_only"
	// CodeNotImplemented: this server cannot do what was asked: a whole
	// query (search, prepare) on an owner node hosting only a slice of the
	// shard partition, or WAL shipping from a server without a WAL.
	CodeNotImplemented = "not_implemented"
	// CodeWALGap: the requested WAL cursor precedes the oldest retained
	// record (a checkpoint truncated history). The follower must reseed
	// from a snapshot.
	CodeWALGap = "wal_gap"
	// CodeInternal: unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorBody is the structured error payload.
type ErrorBody struct {
	// Code is one of the Code* constants — the stable contract.
	Code string `json:"code"`
	// Message is human-readable detail; its text is NOT stable.
	Message string `json:"message"`
	// RetryAfterMS, when nonzero, is how long the client should back
	// off before retrying (set on shed responses).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorResponse is the envelope every non-2xx response carries:
// {"error":{"code":"shed","message":"…","retry_after_ms":1000}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// SearchRequest is the POST /v1/search body.
type SearchRequest struct {
	// Query is the keyword query, e.g. "database software company revenue".
	Query string `json:"query"`
	// K is the number of table answers; default 10.
	K int `json:"k,omitempty"`
	// Algorithm is "patternenum"/"pe" (default), "linearenum"/"le",
	// "baseline", or "auto" (the cost-based planner picks patternenum or
	// linearenum per query; answers are bit-identical to requesting the
	// resolved algorithm explicitly).
	Algorithm string `json:"algorithm,omitempty"`
	// D must be 0 or the engine's height threshold.
	D int `json:"d,omitempty"`
	// MaxRows caps materialized rows per answer; default server-side.
	MaxRows int `json:"max_rows,omitempty"`
	// Priority is the admission-control class: "high", "normal"
	// (default), or "low". The X-KB-Priority header takes precedence.
	// Priority orders only queue admission under load; it never changes
	// the answer bytes and does not participate in the cache key.
	Priority string `json:"priority,omitempty"`
	// PreparedID executes a handle from POST /v1/prepare instead of
	// planning from scratch: query/k/algorithm/d/max_rows come from the
	// prepare-time request (and must be omitted here); only priority may
	// accompany it. A handle expired by an update or evicted from the
	// bounded registry answers 410 prepared_gone — re-prepare.
	PreparedID string `json:"prepared_id,omitempty"`
}

// SearchAnswer is one ranked table answer on the wire.
type SearchAnswer struct {
	Rank    int      `json:"rank"`
	Score   float64  `json:"score"`
	NumRows int      `json:"num_rows"`
	Pattern string   `json:"pattern"`
	Columns []string `json:"columns"`
	// FullColumns are the paper's formal column names τ(v)α(e)τ(u),
	// parallel to Columns. They make remote answers byte-comparable to
	// local golden renderings.
	FullColumns []string   `json:"full_columns,omitempty"`
	Rows        [][]string `json:"rows"`
}

// SearchResponse is the POST /v1/search reply. Epoch names the KB
// snapshot that computed the answers: every response is consistent with
// exactly that published epoch (cached responses keep the epoch they
// were computed under — they are only retained while still valid).
type SearchResponse struct {
	Query string `json:"query"`
	K     int    `json:"k"`
	// Algorithm is the algorithm that computed (or would compute) the
	// answers — for "auto" requests, the planner's resolution, never
	// "auto" itself.
	Algorithm string `json:"algorithm"`
	D         int    `json:"d"`
	Epoch     uint64 `json:"epoch"`
	Cached    bool   `json:"cached"`
	// Coalesced reports that this response shares an execution with an
	// identical concurrent request (same normalized query, options, and
	// epoch) instead of having run the search itself.
	Coalesced bool `json:"coalesced,omitempty"`
	// PreparedID echoes the handle a prepared execution ran (prepared
	// searches bypass the result cache; Epoch is the handle's).
	PreparedID string  `json:"prepared_id,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// Plan reports the resolved execution plan and per-stage timings.
	// On cache hits the stage timings are those of the run that populated
	// the entry.
	Plan    *PlanOut       `json:"plan,omitempty"`
	Answers []SearchAnswer `json:"answers"`
}

// PlanOut is the wire form of a resolved execution plan.
type PlanOut struct {
	// Algorithm is the resolved algorithm's wire name.
	Algorithm string `json:"algorithm"`
	// Auto reports that the planner (not the request) chose Algorithm.
	Auto bool `json:"auto"`
	// Reason is the planner's cost rationale (auto only).
	Reason string `json:"reason,omitempty"`
	// CandidateRoots is -1 when the plan did not need the intersection.
	CandidateRoots int   `json:"candidate_roots"`
	RootTypes      int   `json:"root_types"`
	PatternSpace   int64 `json:"pattern_space"`
	Frontier       int64 `json:"frontier"`
	// Per-stage wall clock of the staged executor, in milliseconds.
	PrepareMS   float64 `json:"prepare_ms"`
	EnumerateMS float64 `json:"enumerate_ms"`
	AggregateMS float64 `json:"aggregate_ms"`
	RankMS      float64 `json:"rank_ms"`
	// BoundPruned counts enumeration units the executor's top-k bound
	// pushdown cut before materialization (0 when pruning was off or
	// never fired).
	BoundPruned int64 `json:"bound_pruned"`
}

// PrepareRequest is the POST /v1/prepare body: the search shape to
// retain. The fields mirror SearchRequest (baseline cannot be prepared —
// it has no prepare stage).
type PrepareRequest struct {
	Query     string `json:"query"`
	K         int    `json:"k,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	D         int    `json:"d,omitempty"`
	MaxRows   int    `json:"max_rows,omitempty"`
}

// PrepareResponse is the POST /v1/prepare reply: the handle to pass as
// prepared_id to POST /v1/search. Handles are bound to the epoch that
// prepared them and answer 410 prepared_gone once expired (by the next
// update) or evicted (from the bounded registry, least recently used
// first).
type PrepareResponse struct {
	ID        string `json:"id"`
	Epoch     uint64 `json:"epoch"`
	Query     string `json:"query"`
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
	D         int    `json:"d"`
	MaxRows   int    `json:"max_rows"`
	// Plan is the plan the handle executes (stage timings zero — nothing
	// has run).
	Plan *PlanOut `json:"plan,omitempty"`
}

// UpdateRequest is the POST /v1/update body: an atomic batch of
// mutations (see kbtable.UpdateOp for the op schema).
type UpdateRequest struct {
	Ops []kbtable.UpdateOp `json:"ops"`
}

// UpdateResponse is the POST /v1/update reply.
type UpdateResponse struct {
	// Epoch is the newly published epoch; searches answered after this
	// reply reflect the update (or carry an older epoch from cache only
	// if the update could not have changed them).
	Epoch uint64 `json:"epoch"`
	// NewEntities resolves this batch's add_entity back-references.
	NewEntities []int64 `json:"new_entities,omitempty"`
	Entities    int     `json:"entities"`
	Attributes  int     `json:"attributes"`
	// DirtyRoots / entry counts describe the incremental index splice.
	EntriesRemoved int64 `json:"entries_removed"`
	EntriesAdded   int64 `json:"entries_added"`
	DirtyRoots     int   `json:"dirty_roots"`
	// TouchedWords and InvalidatedCache size the blast radius: how many
	// posting lists changed and how many cached results were dropped.
	TouchedWords     int `json:"touched_words"`
	InvalidatedCache int `json:"invalidated_cache"`
	// AffectedShards counts shards whose postings the update touched.
	AffectedShards int     `json:"affected_shards,omitempty"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

// CacheStats is the /v1/healthz view of the result cache.
type CacheStats struct {
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
}

// ShardHealth is the /v1/healthz view of the engine's shard layout.
type ShardHealth struct {
	Count int `json:"count"`
	// Epochs / Roots / Entries are per-shard, Count long: the shard's
	// update epoch, live owned roots, and index postings.
	Epochs  []uint64 `json:"epochs,omitempty"`
	Roots   []int    `json:"roots,omitempty"`
	Entries []int64  `json:"entries,omitempty"`
}

// IndexHealth is the /v1/healthz view of the resident index footprint:
// exact columnar-arena bytes (summed across shards) and the bytes/entry
// figure the footprint benchmarks track.
type IndexHealth struct {
	Bytes         int64   `json:"bytes"`
	BytesPerEntry float64 `json:"bytes_per_entry"`
	Entries       int64   `json:"entries"`
	Patterns      int     `json:"patterns"`
	D             int     `json:"d"`
}

// PlannerHealth aggregates the Auto planner's decisions since startup.
type PlannerHealth struct {
	// AutoRequests counts searches that asked for "auto".
	AutoRequests uint64 `json:"auto_requests"`
	// ChosePatternEnum / ChoseLinearEnum split the resolutions.
	ChosePatternEnum uint64 `json:"chose_patternenum"`
	ChoseLinearEnum  uint64 `json:"chose_linearenum"`
	// PlanCache reports the engine chain's plan cache: repeat query
	// shapes resolve their Auto plan from cached statistics instead of
	// re-probing.
	PlanCache *PlanCacheHealth `json:"plan_cache,omitempty"`
	// Prepared reports prepared-query traffic.
	Prepared PreparedHealth `json:"prepared"`
}

// PlanCacheHealth is the /v1/healthz view of the engine's plan cache.
type PlanCacheHealth struct {
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Epoch is the cache's invalidation epoch — it advances on every
	// applied update, fencing superseded snapshots out of the cache.
	Epoch       uint64 `json:"epoch"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Invalidated uint64 `json:"invalidated"`
}

// PreparedHealth is the /v1/healthz view of the prepared-query registry.
type PreparedHealth struct {
	// Live counts handles valid on the current epoch; the registry is
	// bounded, so it never exceeds the server's fixed capacity.
	Live int `json:"live"`
	// Prepares / Searches / Expired count handles created, prepared
	// executions served, and handles invalidated by epoch swaps
	// (capacity evictions are not counted).
	Prepares uint64 `json:"prepares"`
	Searches uint64 `json:"searches"`
	Expired  uint64 `json:"expired"`
}

// DurabilityHealth is the /v1/healthz view of the snapshot + WAL store.
type DurabilityHealth struct {
	// DataDir is the store's directory.
	DataDir string `json:"data_dir"`
	// WALSeq is the last durable WAL sequence; SnapshotSeq is the WAL
	// position of the newest snapshot. PendingRecords = WALSeq −
	// SnapshotSeq is how many update batches a cold start would replay.
	WALSeq         uint64 `json:"wal_seq"`
	SnapshotSeq    uint64 `json:"snapshot_seq"`
	PendingRecords uint64 `json:"wal_pending_records"`
	// WALBytes is the live WAL size on disk.
	WALBytes int64 `json:"wal_bytes"`
	// Checkpoints / CheckpointErrors count completed and failed
	// checkpoints since startup; CheckpointEvery is the trigger
	// threshold (-1 = automatic checkpoints disabled).
	Checkpoints      uint64 `json:"checkpoints"`
	CheckpointErrors uint64 `json:"checkpoint_errors,omitempty"`
	CheckpointEvery  int    `json:"checkpoint_every"`
	// LastCheckpointUnix is the wall-clock second of the last completed
	// checkpoint (0 = none since startup).
	LastCheckpointUnix int64 `json:"last_checkpoint_unix,omitempty"`
	// TornOnOpen reports that this process found (and truncated) a torn
	// WAL suffix when it opened the store — evidence of a crash.
	TornOnOpen bool `json:"torn_on_open,omitempty"`
	// WALBroken reports a failed WAL append: the server now rejects
	// every update (503 durability) until restarted. The top-level
	// status turns "degraded" so health probes catch it.
	WALBroken bool `json:"wal_broken,omitempty"`
	// Group-commit batching: GroupCommitBatches fsyncs covered
	// GroupCommitRecords WAL records (their ratio is the average batch
	// size; 1.0 means updates never overlapped), and the largest batch.
	GroupCommitBatches  uint64 `json:"group_commit_batches"`
	GroupCommitRecords  uint64 `json:"group_commit_records"`
	GroupCommitMaxBatch int    `json:"group_commit_max_batch"`
}

// ServingHealth is the /v1/healthz view of the serving path: read
// coalescing and admission control.
type ServingHealth struct {
	// Coalesced counts searches that joined another identical in-flight
	// execution instead of running the search themselves.
	Coalesced uint64 `json:"coalesced"`
	// MaxConcurrent is the execution-slot bound (0 = gate disabled).
	MaxConcurrent int `json:"max_concurrent"`
	// InFlight / QueueDepth are the gate's current occupancy.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
	// ShedQueueFull / ShedQueueTimeout count 429s by cause.
	ShedQueueFull    uint64 `json:"shed_queue_full"`
	ShedQueueTimeout uint64 `json:"shed_queue_timeout"`
}

// HealthResponse is the GET /v1/healthz reply.
type HealthResponse struct {
	Status        string            `json:"status"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      uint64            `json:"requests"`
	Epoch         uint64            `json:"epoch"`
	Updates       uint64            `json:"updates"`
	Updatable     bool              `json:"updatable"`
	Cache         CacheStats        `json:"cache"`
	Planner       PlannerHealth     `json:"planner"`
	Serving       ServingHealth     `json:"serving"`
	Index         *IndexHealth      `json:"index,omitempty"`
	Shards        *ShardHealth      `json:"shards,omitempty"`
	Durability    *DurabilityHealth `json:"durability,omitempty"`
	Cluster       *ClusterHealth    `json:"cluster,omitempty"`
}

// ShardsResponse is the GET /v1/shards reply: which slice of the shard
// partition this process hosts, and at what replication position. The
// cluster router reads it at startup and on failover to learn where
// each shard's legs can run.
type ShardsResponse struct {
	// Shards is the total partition size, at least 1.
	Shards int `json:"shards"`
	// Owned lists the resident shards, ascending. A complete engine
	// owns all of them.
	Owned    []int `json:"owned"`
	Complete bool  `json:"complete"`
	// Epoch is the published epoch; Seq is the WAL sequence the engine
	// state reflects (on followers, the replication cursor).
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
	// Role / NodeID identify the process in a cluster ("standalone",
	// "coordinator", "node", "replica"; empty outside a cluster).
	Role   string `json:"role,omitempty"`
	NodeID string `json:"node_id,omitempty"`
}

// WALSegmentsResponse is the GET /v1/wal/segments?after=N reply:
// committed WAL records with sequence > after, in order. Followers
// replay them through the same update path the origin used and advance
// their cursor to the last record's Seq.
type WALSegmentsResponse struct {
	// After echoes the request cursor.
	After uint64 `json:"after"`
	// Records are the shipped update batches (possibly empty).
	Records []kbtable.WALRecord `json:"records"`
	// LastSeq is the newest durable sequence on the origin; cursor <
	// LastSeq with no records means the gap was checkpointed away.
	LastSeq uint64 `json:"last_seq"`
	// More reports that the batch was truncated at the server's limit —
	// pull again immediately instead of sleeping an interval.
	More bool `json:"more,omitempty"`
}

// ClusterProbeRequest is the coordinator→node POST /v1/cluster/probe
// body: run the prepare-only planner probe for one resident shard.
type ClusterProbeRequest struct {
	Shard   int    `json:"shard"`
	Query   string `json:"query"`
	K       int    `json:"k,omitempty"`
	MaxRows int    `json:"max_rows,omitempty"`
	// Seq pins the coordinator's WAL position: a node whose applied
	// cursor differs answers 409 stale_epoch instead of computing a
	// probe on a different snapshot.
	Seq uint64 `json:"seq"`
}

// ClusterProbeResponse carries one shard's probe statistics back to the
// coordinator, which merges them in ascending shard order.
type ClusterProbeResponse struct {
	Shard int                    `json:"shard"`
	Seq   uint64                 `json:"seq"`
	Stats kbtable.ShardPlanStats `json:"stats"`
}

// ClusterScatterRequest is the coordinator→node POST /v1/cluster/scatter
// body: run one shard's enumerate→aggregate leg under an already
// resolved algorithm ("patternenum" or "linearenum"; never "auto" —
// the coordinator resolves plans — and never "baseline", which stays
// in-process).
type ClusterScatterRequest struct {
	Shard     int    `json:"shard"`
	Query     string `json:"query"`
	Algorithm string `json:"algorithm"`
	K         int    `json:"k,omitempty"`
	MaxRows   int    `json:"max_rows,omitempty"`
	// Seq pins the coordinator's WAL position, as in ClusterProbeRequest.
	Seq uint64 `json:"seq"`
}

// ClusterScatterResponse carries one shard's complete scatter partial:
// content-keyed patterns with per-root aggregates, sufficient for the
// coordinator's exact Theorem-5 gather.
type ClusterScatterResponse struct {
	Shard   int                   `json:"shard"`
	Seq     uint64                `json:"seq"`
	Partial *kbtable.ShardPartial `json:"partial"`
}

// ClusterHealth is the /v1/healthz cluster section.
type ClusterHealth struct {
	// Role is "coordinator", "node", or "replica".
	Role   string `json:"role"`
	NodeID string `json:"node_id,omitempty"`
	// Seq is this process's applied WAL position (the origin's durable
	// sequence on a coordinator, the replication cursor on followers).
	Seq uint64 `json:"seq"`
	// Nodes is the coordinator's member table with per-node liveness.
	Nodes []ClusterNodeHealth `json:"nodes,omitempty"`
	// Replication is the follower-side pull state.
	Replication *ReplicationHealth `json:"replication,omitempty"`
}

// ClusterNodeHealth is one member in the coordinator's view.
type ClusterNodeHealth struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	Role   string `json:"role"`
	Shards []int  `json:"shards,omitempty"`
	// Healthy reports the last interaction outcome; LastError is the
	// most recent failure (empty when healthy).
	Healthy   bool   `json:"healthy"`
	LastError string `json:"last_error,omitempty"`
	// Remote / LocalFallback count shard legs this node served vs legs
	// that fell back to coordinator-local execution.
	Remote        uint64 `json:"remote"`
	LocalFallback uint64 `json:"local_fallback"`
}

// ReplicationHealth is the follower-side WAL pull state.
type ReplicationHealth struct {
	// Source is the origin's base URL.
	Source string `json:"source"`
	// Seq is the applied cursor; SourceSeq the origin's last observed
	// durable sequence; Lag their difference at the last pull.
	Seq       uint64 `json:"seq"`
	SourceSeq uint64 `json:"source_seq"`
	Lag       uint64 `json:"lag"`
	// Pulls / Records / Errors count pull rounds, applied records, and
	// failed rounds since startup.
	Pulls   uint64 `json:"pulls"`
	Records uint64 `json:"records"`
	Errors  uint64 `json:"errors"`
	// LastError is the most recent pull failure (empty when healthy).
	LastError string `json:"last_error,omitempty"`
}

// AlgorithmName returns a's stable wire name, as carried in
// SearchRequest.Algorithm and ClusterScatterRequest.Algorithm.
func AlgorithmName(a kbtable.Algorithm) string {
	switch a {
	case kbtable.LinearEnum:
		return "linearenum"
	case kbtable.Baseline:
		return "baseline"
	case kbtable.Auto:
		return "auto"
	default:
		return "patternenum"
	}
}

// ParseAlgorithm is AlgorithmName's inverse, accepting the "pe"/"le"
// shorthands and the empty string (= the default, PatternEnum).
func ParseAlgorithm(s string) (kbtable.Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "pe", "patternenum":
		return kbtable.PatternEnum, nil
	case "le", "linearenum":
		return kbtable.LinearEnum, nil
	case "baseline":
		return kbtable.Baseline, nil
	case "auto":
		return kbtable.Auto, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want patternenum, linearenum, baseline or auto)", s)
}

// seqKey carries a pinned WAL sequence through a context from the
// serving layer (which knows the snapshot a request is pinned to) to
// the cluster transport (which stamps it on scatter legs).
type seqKey struct{}

// WithSeq returns a context carrying the pinned WAL sequence seq.
func WithSeq(ctx context.Context, seq uint64) context.Context {
	return context.WithValue(ctx, seqKey{}, seq)
}

// SeqFrom extracts the pinned WAL sequence (0, false when absent).
func SeqFrom(ctx context.Context) (uint64, bool) {
	v, ok := ctx.Value(seqKey{}).(uint64)
	return v, ok
}
