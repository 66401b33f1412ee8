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
// query shapes skip the planner probe) and prepared queries (a plan
// resolved once, executed on the ordinary search path).

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

// PreparedQuery is one query with its options and its plan, resolved once
// and pinned to the engine snapshot that prepared it. Executions run the
// ordinary search path: an Auto query finds its statistics in the plan
// cache (the prepare filled it), so it skips the planner probe, and its
// answers are byte-identical to a fresh search on the same snapshot.
//
// Engines are immutable, so the handle stays consistent forever; after
// an ApplyUpdate the handle still answers from the pre-update snapshot,
// exactly like an in-flight search. Callers serving live traffic should
// re-prepare on the new engine. A PreparedQuery is safe for concurrent
// Search calls.
type PreparedQuery struct {
	eng   *Engine
	query string
	opts  SearchOptions
	plan  PlanInfo
}

// PrepareContext resolves query's plan and retains it for repeated
// execution. Algorithm may be Auto: the planner's choice is then part of
// the retained plan. Baseline has no plan and is rejected, as is a partial
// engine.
func (e *Engine) PrepareContext(ctx context.Context, query string, opts SearchOptions) (*PreparedQuery, error) {
	if opts.Algorithm == Baseline {
		return nil, fmt.Errorf("kbtable: the baseline has no plan to prepare")
	}
	plan, err := e.plan(ctx, nil, query, opts)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{eng: e, query: query, opts: opts, plan: plan}, nil
}

// Plan returns the plan the prepared query executes (stage timings are
// zero).
func (p *PreparedQuery) Plan() PlanInfo { return p.plan }

// Search executes the prepared query with the options captured at
// prepare time.
func (p *PreparedQuery) Search(ctx context.Context) ([]Answer, PlanInfo, error) {
	return p.eng.SearchPlan(ctx, p.query, p.opts)
}
