package kbtable

import (
	"context"
	"fmt"
	"strings"

	"kbtable/internal/search"
	"kbtable/internal/shard"
	"kbtable/internal/text"
)

// This file is the facade's planner surface: the plan cache (repeat
// query shapes skip the planner probe) and prepared queries (repeat
// executions skip the whole prepare stage).

// NormalizeQuery canonicalizes a query string exactly as the engine's
// tokenizer will: lowercased maximal letter/digit runs joined by single
// spaces, with punctuation dropped. Two queries with equal normal forms
// produce byte-identical answers (token order is preserved — column
// order follows it), so result caches and request coalescers should key
// on this form; anything finer fragments the cache on punctuation the
// engine never sees.
func NormalizeQuery(q string) string {
	return strings.Join(text.Tokenize(q), " ")
}

// PlanCacheStats snapshots the engine chain's plan-cache effectiveness.
type PlanCacheStats = search.PlanCacheStats

// PlanCacheStats reports the plan cache shared along this engine's
// update chain (zeros when the engine predates the cache, e.g. a
// zero-value Engine).
func (e *Engine) PlanCacheStats() PlanCacheStats {
	if e.plans == nil {
		return PlanCacheStats{}
	}
	return e.plans.Stats()
}

// carryPlanCache hands the predecessor's plan cache to a successor
// snapshot, invalidating word-precisely: entries depending on a touched
// word are evicted, a structural PageRank refresh flushes everything,
// and the epoch bump fences the predecessor out of the cache entirely.
func (ne *Engine) carryPlanCache(e *Engine, touched []string, flush bool) {
	if e.plans == nil {
		return
	}
	ne.plans = e.plans
	ne.planEpoch = ne.plans.Invalidate(touched, flush)
}

// planStats returns the merged prepare-stage statistics for query,
// consulting the plan cache and probing — every shard through legs or
// in process; both merge to the same statistics — only on a miss. The
// cache key is the resolved canonical word set alone: PlanStats depend
// only on those words and the index contents — never on Options — and
// the plan itself is re-derived per request by ChoosePlan.
func (e *Engine) planStats(ctx context.Context, query string, so search.Options, legs shard.Legs) (search.PlanStats, error) {
	words := e.QueryWords(query)
	key := search.PlanCacheKey(words)
	if e.plans != nil {
		if st, ok := e.plans.Get(key, e.planEpoch); ok {
			return st, nil
		}
	}
	st, err := e.sh.PlanStats(ctx, query, so, legs)
	if err != nil {
		return search.PlanStats{}, err
	}
	if e.plans != nil {
		e.plans.Put(key, e.planEpoch, st, words)
	}
	return st, nil
}

// cachedAutoPlan resolves an Auto query's plan from cached statistics
// without probing. auto gates it (explicit algorithms have nothing to
// resolve); a cache miss returns hit=false and the caller probes.
func (e *Engine) cachedAutoPlan(query string, auto bool) (search.Plan, bool) {
	if !auto || e.plans == nil {
		return search.Plan{}, false
	}
	words := e.QueryWords(query)
	st, ok := e.plans.Get(search.PlanCacheKey(words), e.planEpoch)
	if !ok {
		return search.Plan{}, false
	}
	return search.ChoosePlan(search.AlgoAuto, st), true
}

// rememberPlanStats caches an executed Auto query's probe statistics for
// the next request of the same shape.
func (e *Engine) rememberPlanStats(query string, st search.PlanStats) {
	if e.plans == nil {
		return
	}
	words := e.QueryWords(query)
	e.plans.Put(search.PlanCacheKey(words), e.planEpoch, st, words)
}

// --- Prepared queries -------------------------------------------------

// PreparedQuery retains one query's prepare-stage output — resolved
// words, posting handles, planner statistics — bound to the engine
// snapshot that prepared it. Executions run only enumerate → aggregate →
// rank, skipping keyword resolution and every posting lookup, and return
// answers byte-identical to a fresh search on the same snapshot.
//
// Engines are immutable, so the handle stays consistent forever; after
// an ApplyUpdate the handle still answers from the pre-update snapshot,
// exactly like an in-flight search. Callers serving live traffic should
// re-prepare on the new engine (kbserve invalidates prepared handles on
// every epoch swap). A PreparedQuery is safe for concurrent Search
// calls.
type PreparedQuery struct {
	eng   *Engine
	query string
	so    search.Options
	prep  *shard.Prepared
}

// PrepareContext runs the prepare stage for query and retains its output
// for repeated execution. Algorithm may be Auto — the plan is then
// resolved from the retained statistics. Baseline has no prepare stage
// and is rejected.
func (e *Engine) PrepareContext(ctx context.Context, query string, opts SearchOptions) (*PreparedQuery, error) {
	if !e.sh.Complete() {
		return nil, ErrPartialEngine
	}
	algo, err := searchAlgo(opts.Algorithm)
	if err != nil {
		return nil, err
	}
	pq := &PreparedQuery{eng: e, query: query, so: e.searchOptions(opts)}
	if pq.prep, err = e.sh.Prepare(ctx, algo, query, pq.so); err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	return pq, nil
}

// Query returns the prepared query text.
func (p *PreparedQuery) Query() string { return p.query }

// Engine returns the snapshot the handle is bound to.
func (p *PreparedQuery) Engine() *Engine { return p.eng }

// Plan resolves the plan the prepared query executes, without executing
// (stage timings are zero).
func (p *PreparedQuery) Plan() PlanInfo {
	return planInfo(p.prep.Plan(), search.QueryStats{})
}

// Search executes the prepared query with the options captured at
// prepare time.
func (p *PreparedQuery) Search(ctx context.Context) ([]Answer, PlanInfo, error) {
	res, err := p.eng.sh.SearchPrepared(ctx, p.prep, p.so)
	if err != nil {
		return nil, PlanInfo{}, fmt.Errorf("kbtable: %w", err)
	}
	return p.eng.answers(res), planInfo(res.Plan, res.Stats), nil
}
