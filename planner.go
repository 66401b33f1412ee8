package kbtable

import (
	"context"
	"fmt"
	"strings"

	"kbtable/internal/search"
	"kbtable/internal/shard"
	"kbtable/internal/text"
)

// This file is the facade's planner-loop surface: the plan cache (repeat
// query shapes skip the planner probe), prepared queries (repeat
// executions skip the whole prepare stage), and the adaptive-bias
// accumulator (observed stage timings feed the PE/LE crossover).

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
// the plan itself is re-derived per request by ChoosePlan, so bias
// changes (including the adaptive learned bias) need no invalidation.
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
func (e *Engine) cachedAutoPlan(query string, so search.Options, auto bool) (search.Plan, bool) {
	if !auto || e.plans == nil {
		return search.Plan{}, false
	}
	words := e.QueryWords(query)
	st, ok := e.plans.Get(search.PlanCacheKey(words), e.planEpoch)
	if !ok {
		return search.Plan{}, false
	}
	return search.ChoosePlan(search.AlgoAuto, st, so), true
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
	opts  SearchOptions
	so    search.Options
	prep  *shard.Prepared
}

// Prepare runs the prepare stage for query and retains its output for
// repeated execution. Algorithm may be Auto — the plan is then
// re-resolved per execution from the retained statistics (so a changed
// adaptive bias takes effect without re-preparing). Baseline has no
// prepare stage and is rejected.
func (e *Engine) Prepare(query string, opts SearchOptions) (*PreparedQuery, error) {
	return e.PrepareContext(context.Background(), query, opts)
}

// PrepareContext is Prepare with cancellation.
func (e *Engine) PrepareContext(ctx context.Context, query string, opts SearchOptions) (*PreparedQuery, error) {
	if !e.sh.Complete() {
		return nil, ErrPartialEngine
	}
	algo, err := searchAlgo(opts.Algorithm)
	if err != nil {
		return nil, err
	}
	pq := &PreparedQuery{eng: e, query: query, opts: opts, so: e.searchOptions(opts)}
	if pq.prep, err = e.sh.Prepare(ctx, algo, query, pq.so); err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	return pq, nil
}

// Query returns the prepared query text.
func (p *PreparedQuery) Query() string { return p.query }

// Engine returns the snapshot the handle is bound to.
func (p *PreparedQuery) Engine() *Engine { return p.eng }

// Plan resolves the plan the prepared query would execute right now,
// without executing (stage timings are zero).
func (p *PreparedQuery) Plan() PlanInfo {
	return planInfo(p.prep.Plan(p.so), search.QueryStats{})
}

// Search executes the prepared query with the options captured at
// prepare time.
func (p *PreparedQuery) Search(ctx context.Context) ([]Answer, PlanInfo, error) {
	return p.SearchBias(ctx, p.opts.AutoBias)
}

// SearchBias is Search with an overriding AutoBias for this execution —
// the serve layer's adaptive bias drifts between executions of one
// handle. The bias steers only an Auto plan's PE/LE choice; answers are
// bit-identical under either algorithm.
func (p *PreparedQuery) SearchBias(ctx context.Context, autoBias float64) ([]Answer, PlanInfo, error) {
	so := p.so
	so.AutoBias = autoBias
	res, err := p.eng.sh.SearchPrepared(ctx, p.prep, so)
	if err != nil {
		return nil, PlanInfo{}, fmt.Errorf("kbtable: %w", err)
	}
	return p.eng.answers(res), planInfo(res.Plan, res.Stats), nil
}

// --- Adaptive planner feedback ----------------------------------------

// AdaptiveBiasStats snapshots an AdaptiveBias accumulator.
type AdaptiveBiasStats = search.AdaptiveBiasStats

// AdaptiveBias folds observed Enumerate-stage timings per resolved
// algorithm back into the Auto planner's effective bias: the cost model
// compares PatternEnum's pattern space against LinearEnum's root +
// frontier cost in abstract units, and the accumulator learns the
// nanoseconds-per-unit exchange rate from executed queries (bounded
// EWMA; see search.AdaptiveBias). Feed Effective() into
// SearchOptions.AutoBias. Answers are bit-identical at any bias — it
// steers only the PE/LE choice.
type AdaptiveBias struct {
	a *search.AdaptiveBias
}

// NewAdaptiveBias returns an accumulator around base (non-positive means
// the planner default).
func NewAdaptiveBias(base float64) *AdaptiveBias {
	return &AdaptiveBias{a: search.NewAdaptiveBias(base)}
}

// Observe folds one executed query's PlanInfo in. Only PatternEnum and
// LinearEnum executions inform the PE/LE crossover; anything else is
// ignored.
func (b *AdaptiveBias) Observe(pi PlanInfo) {
	var algo search.Algo
	switch pi.Algorithm {
	case PatternEnum:
		algo = search.AlgoPE
	case LinearEnum:
		algo = search.AlgoLE
	default:
		return
	}
	b.a.Observe(algo, search.PlanStats{
		CandidateRoots: pi.CandidateRoots,
		RootTypes:      pi.RootTypes,
		PatternSpace:   pi.PatternSpace,
		Frontier:       pi.Frontier,
	}, pi.Enumerate)
}

// Effective returns the current learned bias (the base until both
// algorithms have been observed).
func (b *AdaptiveBias) Effective() float64 { return b.a.Effective() }

// Stats snapshots the accumulator for observability surfaces.
func (b *AdaptiveBias) Stats() AdaptiveBiasStats { return b.a.Stats() }
