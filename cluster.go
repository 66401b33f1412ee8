package kbtable

// Cluster facade: the engine-level surfaces a multi-node deployment is
// built from. An owner node hosts a PARTIAL engine (only its owned
// shards' indexes, built over the full graph so each is
// content-identical to the same shard of a full engine) and serves
// per-shard query legs; a coordinator holds a FULL engine,
// scatters the planner probe and the enumerate→aggregate legs to owners,
// and gathers the per-shard per-root partials with the same Theorem-5
// fold the in-process scatter uses — so cluster answers are bit-identical
// to a single-node run. The HTTP transport lives in internal/cluster;
// everything exactness-critical lives here and in internal/shard.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"kbtable/internal/search"
	"kbtable/internal/shard"
)

// ErrPartialEngine reports a whole-query operation on an engine that
// hosts only a subset of its shard partition (EngineOptions.OwnedShards).
var ErrPartialEngine = errors.New("kbtable: partial engine hosts only its owned shards")

// ShardPartial is one shard's complete scatter output in wire form: the
// patterns it discovered (as content-keyed path sequences, independent of
// any shard-local interning) with their per-root partial aggregates.
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
// an owner node's leg of a scattered cluster probe. Per-shard statistics
// merged in ascending shard order (MergeShardPlanStats) equal the full
// engine's own probe merge.
func (e *Engine) ProbeShard(ctx context.Context, si int, query string, opts SearchOptions) (ShardPlanStats, error) {
	st, err := e.sh.ProbeShard(ctx, si, query, e.searchOptions(opts))
	if err != nil {
		return ShardPlanStats{}, fmt.Errorf("kbtable: %w", err)
	}
	return st, nil
}

// MergeShardPlanStats folds per-shard probe statistics in ascending
// shard order, exactly as an in-process probe merges them.
func MergeShardPlanStats(parts []ShardPlanStats) ShardPlanStats {
	return shard.MergeWirePlanStats(parts)
}

// ScatterShard runs one resident shard's scatter leg under an already
// resolved algorithm (never Auto; Baseline stays in process) and returns
// the wire partial an exact cluster gather consumes.
func (e *Engine) ScatterShard(ctx context.Context, si int, algorithm Algorithm, query string, opts SearchOptions) (*ShardPartial, error) {
	algo, err := searchAlgo(algorithm)
	if err != nil {
		return nil, err
	}
	p, err := e.sh.ScatterShard(ctx, si, algo, query, e.searchOptions(opts))
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	return p, nil
}

// ShardExecutor runs one shard's leg of a distributed query, possibly on
// a remote owner node. An error from either method makes the coordinator
// fall back to executing that leg on its own resident shard, so a
// transport-level executor never has to be correct — only fast.
type ShardExecutor interface {
	ProbeShard(ctx context.Context, si int, query string, opts SearchOptions) (ShardPlanStats, error)
	ScatterShard(ctx context.Context, si int, algorithm Algorithm, query string, opts SearchOptions) (*ShardPartial, error)
}

// SearchDistributed answers a query by scattering the planner probe and
// the per-shard enumerate→aggregate legs through exec, then gathering
// the partials with the canonical fold on the local (full) engine.
// Answers are bit-identical to SearchPlan on the same engine: remote
// legs return the exact partial the local scatter would have produced
// (content-identical indexes), and any leg that fails — node down, stale
// replica, transport error — is re-run locally. Baseline queries gather
// concrete trees rather than per-root aggregates and execute entirely
// locally.
func (e *Engine) SearchDistributed(ctx context.Context, exec ShardExecutor, query string, opts SearchOptions) ([]Answer, PlanInfo, error) {
	if !e.sh.Complete() {
		return nil, PlanInfo{}, ErrPartialEngine
	}
	algo, err := searchAlgo(opts.Algorithm)
	if err != nil {
		return nil, PlanInfo{}, err
	}
	so := e.searchOptions(opts)
	start := time.Now()
	n := e.sh.NumShards()

	// Resolve Auto once, coordinator-side: plan-cache hit, else a probe
	// scattered to the owners (merged ascending — the planner's choice
	// over scattered statistics equals its choice over a local probe).
	plan := search.Plan{Algo: algo}
	if algo == search.AlgoAuto {
		st, err := e.planStats(query, func() (search.PlanStats, error) {
			return e.scatterProbe(ctx, exec, query, opts, so)
		})
		if err != nil {
			return nil, PlanInfo{}, err
		}
		plan = search.ChoosePlan(search.AlgoAuto, st, so)
	}

	// The baseline's scatter gathers concrete trees, not per-root
	// aggregates; it stays a local execution.
	if plan.Algo == search.AlgoBaseline {
		res, err := e.sh.SearchWithPlan(ctx, plan, query, so)
		if err != nil {
			return nil, PlanInfo{}, fmt.Errorf("kbtable: %w", err)
		}
		return e.answers(res), planInfo(res.Plan, res.Stats), nil
	}
	probed := time.Now()

	resolved := facadeAlgo(plan.Algo)
	partials := make([]*ShardPartial, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			p, err := exec.ScatterShard(ctx, si, resolved, query, opts)
			if err != nil {
				p, err = e.ScatterShard(ctx, si, resolved, query, opts)
			}
			partials[si], errs[si] = p, err
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, PlanInfo{}, fmt.Errorf("kbtable: %w", err)
		}
	}

	res, err := e.sh.GatherPartials(ctx, start, probed, plan, query, partials, so)
	if err != nil {
		return nil, PlanInfo{}, fmt.Errorf("kbtable: %w", err)
	}
	return e.answers(res), planInfo(res.Plan, res.Stats), nil
}

// scatterProbe runs the per-shard planner probe through exec (failed
// legs fall back to the local resident shard) and merges the statistics
// in ascending shard order — the exact fold an in-process probe uses.
func (e *Engine) scatterProbe(ctx context.Context, exec ShardExecutor, query string, opts SearchOptions, so search.Options) (search.PlanStats, error) {
	n := e.sh.NumShards()
	parts := make([]ShardPlanStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			st, err := exec.ProbeShard(ctx, si, query, opts)
			if err != nil {
				st, err = e.sh.ProbeShard(ctx, si, query, so)
			}
			parts[si], errs[si] = st, err
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return search.PlanStats{}, fmt.Errorf("kbtable: %w", err)
		}
	}
	return shard.FromWirePlanStats(shard.MergeWirePlanStats(parts)), nil
}

// PlanDistributed mirrors Plan — resolve the execution plan without
// executing — with the per-shard prepare probe scattered through exec.
// A plan-cache hit for the query's word set skips the scatter entirely;
// a miss populates the cache, so the following SearchDistributed reuses
// the scattered statistics instead of probing again.
func (e *Engine) PlanDistributed(ctx context.Context, exec ShardExecutor, query string, opts SearchOptions) (PlanInfo, error) {
	if !e.sh.Complete() {
		return PlanInfo{}, ErrPartialEngine
	}
	so := e.searchOptions(opts)
	algo, err := searchAlgo(opts.Algorithm)
	if err != nil {
		return PlanInfo{}, err
	}
	st, err := e.planStats(query, func() (search.PlanStats, error) {
		return e.scatterProbe(ctx, exec, query, opts, so)
	})
	if err != nil {
		return PlanInfo{}, err
	}
	return planInfo(search.ChoosePlan(algo, st, so), search.QueryStats{}), nil
}
