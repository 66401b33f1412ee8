package kbtable

// Cluster facade: the engine-level surfaces a multi-node deployment is
// built from. An owner node hosts a PARTIAL engine (only its owned
// shards' indexes, built over the full graph so each is
// content-identical to the same shard of a full engine) and serves
// per-shard query legs; a coordinator holds a FULL engine and runs the
// same probe and scatter as SearchPlan and Plan (internal/shard's
// PlanStats and Search), with a ShardExecutor running each leg on an
// owner. Partials gather under the same Theorem-5 fold wherever their leg
// ran, so cluster answers are bit-identical to a single-node run. The
// HTTP transport lives in internal/cluster; everything exactness-critical
// lives in internal/shard.

import (
	"context"
	"errors"
	"fmt"

	"kbtable/internal/search"
	"kbtable/internal/shard"
)

// ErrPartialEngine reports a whole-query operation on an engine that
// hosts only a subset of its shard partition (EngineOptions.OwnedShards).
var ErrPartialEngine = errors.New("kbtable: partial engine hosts only its owned shards")

// ShardPartial is one shard's complete scatter output in wire form: the
// patterns it discovered (indices into a table of content-keyed paths,
// independent of any shard-local interning) with their per-root partial
// aggregates. It crosses processes as one binary frame (shard.AppendPartial).
type ShardPartial = shard.WirePartial

// ShardPlanStats is one shard's planner-probe statistics in wire form.
type ShardPlanStats = shard.WirePlanStats

// OwnedShards returns the sorted list of shards resident on this engine
// (all of them, 0..Shards-1, unless EngineOptions.OwnedShards said less).
func (e *Engine) OwnedShards() []int {
	var out []int
	for si := 0; si < e.sh.NumShards(); si++ {
		if e.sh.Resident(si) {
			out = append(out, si)
		}
	}
	return out
}

// Complete reports whether the engine can answer whole queries (every
// shard resident).
func (e *Engine) Complete() bool { return e.sh.Complete() }

// ProbeShard runs the prepare-only planner probe on one resident shard —
// an owner node's leg of a scattered cluster probe.
func (e *Engine) ProbeShard(ctx context.Context, si int, query string, opts SearchOptions) (ShardPlanStats, error) {
	st, err := e.sh.ProbeShard(ctx, si, query, e.searchOptions(opts))
	if err != nil {
		return ShardPlanStats{}, fmt.Errorf("kbtable: %w", err)
	}
	return st, nil
}

// ScatterShard runs one resident shard's scatter leg under an already
// resolved algorithm (PatternEnum or LinearEnum) and returns the wire
// partial an exact cluster gather consumes.
func (e *Engine) ScatterShard(ctx context.Context, si int, algorithm Algorithm, query string, opts SearchOptions) (*ShardPartial, error) {
	if err := checkAlgorithm(algorithm); err != nil {
		return nil, err
	}
	p, err := e.sh.ScatterShard(ctx, si, algorithm, query, e.searchOptions(opts))
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	return p, nil
}

// ShardExecutor runs one shard's leg of a distributed query, possibly on
// a remote owner node. The coordinator falls back to executing a leg on
// its own resident shard when either method returns an error, and also
// when a returned partial fails its checks: a wrong shard label, a path
// pattern the coordinator's shard does not hold, a pattern without one
// path per keyword, a pattern listed twice or without roots, or roots
// that do not ascend within the shard. So a transport-level executor
// never has to be correct — only fast. Baseline and sampled (Lambda > 0)
// queries never reach it: they run on the coordinator.
type ShardExecutor interface {
	ProbeShard(ctx context.Context, si int, query string, opts SearchOptions) (ShardPlanStats, error)
	ScatterShard(ctx context.Context, si int, algorithm Algorithm, query string, opts SearchOptions) (*ShardPartial, error)
}

// execLegs binds a ShardExecutor to one query for the shard layer.
type execLegs struct {
	exec  ShardExecutor
	query string
	opts  SearchOptions
}

func (l execLegs) Probe(ctx context.Context, si int) (ShardPlanStats, error) {
	return l.exec.ProbeShard(ctx, si, l.query, l.opts)
}

func (l execLegs) Scatter(ctx context.Context, si int, algo search.Algo) (*ShardPartial, error) {
	return l.exec.ScatterShard(ctx, si, algo, l.query, l.opts)
}

// legs returns the shard legs exec runs for query, or nil — every leg in
// process — when exec is nil.
func (e *Engine) legs(exec ShardExecutor, query string, opts SearchOptions) shard.Legs {
	if exec == nil {
		return nil
	}
	return execLegs{exec: exec, query: query, opts: opts}
}

// SearchDistributed is SearchPlan with every shard leg — the planner
// probe and the enumerate→aggregate scatter — run through exec and the
// partials gathered on this (full) engine. Answers are bit-identical to
// SearchPlan's: remote legs return the exact partial the local scatter
// would have produced (content-identical indexes), and any leg that fails
// or returns a rejected partial — node down, stale replica, transport
// error, corrupt payload — is re-run locally.
func (e *Engine) SearchDistributed(ctx context.Context, exec ShardExecutor, query string, opts SearchOptions) ([]Answer, PlanInfo, error) {
	return e.search(ctx, exec, query, opts)
}

// PlanDistributed is Plan with the per-shard probe run through exec.
func (e *Engine) PlanDistributed(ctx context.Context, exec ShardExecutor, query string, opts SearchOptions) (PlanInfo, error) {
	return e.plan(ctx, exec, query, opts)
}
