package kbtable

import (
	"context"
	"fmt"
	"strings"

	"kbtable/internal/text"
)

// NormalizeQuery canonicalizes a query string exactly as the engine's
// tokenizer will: lowercased maximal letter/digit runs joined by single
// spaces, with punctuation dropped. Two queries with equal normal forms
// produce byte-identical answers (token order is preserved — column
// order follows it), so result caches should key on this form; anything
// finer fragments the cache on punctuation the engine never sees.
func NormalizeQuery(q string) string {
	return strings.Join(text.Tokenize(q), " ")
}

// PreparedQuery is one query with its options and its plan, resolved once
// and pinned to the engine snapshot that prepared it. Executions run the
// ordinary search path with the captured options (an Auto query plans
// again, from its own probe), so answers are byte-identical to a fresh
// search on the same snapshot.
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
