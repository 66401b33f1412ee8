package kbtable

import (
	"context"
	"fmt"
	"strings"

	"kbtable/internal/cache"
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

// planCacheSize bounds the plan cache each engine chain owns.
const planCacheSize = 512

// PlanCacheStats snapshots the engine chain's plan-cache effectiveness.
type PlanCacheStats = cache.Stats

// PlanCacheStats reports the plan cache shared along this engine's
// update chain.
func (e *Engine) PlanCacheStats() PlanCacheStats { return e.plans.Stats() }

// planKey resolves a query's plan-cache key and invalidation tags: its
// sorted canonical words (PlanStats are set-valued, so word order cannot
// matter), joined by a separator no token contains, so the key is
// injective. No option enters the key: PlanStats depend only on the words
// and the index contents, and the plan is re-derived per request by
// ChoosePlan.
func (e *Engine) planKey(query string) (string, []string) {
	words := e.QueryWords(query)
	return strings.Join(words, "\x1f"), words
}

// planStats returns the merged prepare-stage statistics for query,
// consulting the plan cache and probing — every shard through legs or
// in process; both merge to the same statistics — only on a miss.
func (e *Engine) planStats(ctx context.Context, query string, so search.Options, legs shard.Legs) (search.PlanStats, error) {
	key, words := e.planKey(query)
	if st, ok := e.plans.Get(key, e.planEpoch); ok {
		return st, nil
	}
	st, err := e.sh.PlanStats(ctx, query, so, legs)
	if err != nil {
		return search.PlanStats{}, err
	}
	e.plans.Put(key, e.planEpoch, st, words)
	return st, nil
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
