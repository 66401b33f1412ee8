package shard

import (
	"context"
	"sort"
	"sync"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/search"
)

// allK makes per-shard executors retain every pattern they find. Local
// top-k pruning would be incorrect here: a pattern whose roots split
// across shards can rank below each shard's k-th local score yet inside
// the global top-k once its partials merge, so shards must surface every
// pattern and the cut happens only after the gather. The flip side is
// that a sharded query's transient memory is proportional to the full
// pattern/root answer set, not to k (the same regime as LINEARENUM's
// aggregation dictionary); explosion queries should be fenced with the
// planner probe's subtree count (PlanStats.Frontier, kbtable.Explain)
// before execution, exactly as the paper fences exact enumeration. The
// known follow-up is a bounded two-phase gather with score upper bounds:
// the probe reports per-pattern bounds, their sum over shards yields a
// global k-th-score threshold, and every leg prunes against it. Every leg — resident, remote or fallback —
// runs through PlanStats and scatterGather, so that change lands in those
// two functions.
//
// For the same reason the streaming executor's top-k bound pushdown must
// not fire inside a shard — a locally dominated pattern can win globally —
// and it does not: search.peEnumerate gates pruning on !CollectRootAggs,
// which every scatter sets. Per-shard runs still get streaming's
// predicate pushdown and scratch reuse; only the score cut is disabled.
//
// None of this applies to a one-shard engine queried without legs:
// nothing merges after its executor, so Search hands it the caller's K
// and the bound prunes.
const allK = 1 << 30

// RankedPattern is one globally ranked pattern. Pattern's IDs resolve in
// Table — the pattern table of the lowest-numbered contributing shard;
// Trees are merged across all contributing shards in ascending root order.
type RankedPattern struct {
	Pattern core.TreePattern
	Table   *core.PatternTable
	Agg     core.PatternScore
	Score   float64
	Trees   []core.Subtree
}

// Result is the output of one query.
type Result struct {
	Patterns []RankedPattern
	Stats    search.QueryStats
	// Plan is the resolved execution plan. For Auto it is the planner's
	// decision over the merged per-shard statistics; for explicit
	// algorithms its statistics are the merged per-shard prepare stats.
	Plan search.Plan
}

// shardOut is one shard's scatter result; its patterns resolve in the
// shard's own pattern table.
type shardOut struct {
	patterns []search.RankedPattern
	stats    search.QueryStats
	plan     search.Plan
	err      error
}

// Legs runs shard legs away from the resident shards — a cluster
// coordinator's owner nodes — with the query and its options bound in.
// PlanStats and Search call it once per shard, concurrently. A leg that
// returns an error, or a partial that fails fromWire's checks, runs on
// the resident shard instead, so an implementation never has to be
// correct, only fast.
type Legs interface {
	Probe(ctx context.Context, si int) (WirePlanStats, error)
	Scatter(ctx context.Context, si int, algo search.Algo) (*WirePartial, error)
}

// PlanStats runs the prepare-only planner probe on every shard — through
// legs when given, on the resident shard when legs is nil or a leg fails —
// and merges the statistics in ascending shard order: candidate roots,
// frontier and posting lengths sum exactly (root partitions are
// disjoint); the pattern space sums too, over-counting patterns whose
// roots span shards — acceptable for a cost estimate and deterministic
// for a given engine. Statistics only steer Auto between two algorithms
// with identical answers, so remote ones are taken as given.
func (e *Engine) PlanStats(ctx context.Context, query string, opts search.Options, legs Legs) (search.PlanStats, error) {
	stats := make([]search.PlanStats, e.n)
	errs := make([]error, e.n)
	e.scatter(func(si int) {
		if legs != nil {
			if w, err := legs.Probe(ctx, si); err == nil {
				stats[si] = fromWirePlanStats(w)
				return
			}
		}
		stats[si], errs[si] = search.PlanProbe(ctx, e.units[si].ix, query, opts)
	})
	var merged search.PlanStats
	for si := range stats {
		if errs[si] != nil {
			return merged, errs[si]
		}
		if si == 0 {
			merged = stats[si]
			continue
		}
		merged.Merge(stats[si])
	}
	return merged, nil
}

// mergedPat accumulates one pattern signature across shards, contributors
// in ascending shard order.
type mergedPat struct {
	rootAggs []search.RootAgg
	agg      core.PatternScore // fold of rootAggs in ascending root order
	contrib  []contribRef
}

// contribRef names a contributing shard and the pattern's local identity
// there (PatternIDs are shard-local).
type contribRef struct {
	shard   int
	pattern core.TreePattern
}

// Search answers a query under plan. plan.Algo may be Auto, resolved here
// by one planner decision over the merged per-shard probe; a plan
// resolved earlier (the facade's plan-cache hit) executes and is reported
// as given, with answers bit-identical to resolving it here (the
// Auto-equivalence property). A one-shard engine without legs runs its
// executor directly; otherwise every shard runs one leg — through legs
// when given — and scatterGather merges same-signature patterns exactly
// into the global top-k.
//
// Exactness: every valid subtree roots at exactly one shard, so per-shard
// per-root partial aggregates (search.RootAgg) partition the one-shard
// engine's two-level fold; re-folding them in ascending root order yields
// bit-identical scores, and the (score, content-key) total order makes the
// global top-k independent of gather order — and of where each leg ran.
// LinearEnum's Λ/ρ sampling is the one shard-local behavior: per-type
// subtree counts and sample draws happen within each shard, so a sampled
// run over N > 1 shards is a different (still unbiased) estimate than a
// sampled one-shard run; exact mode (Lambda <= 0) is identical at every N.
func (e *Engine) Search(ctx context.Context, plan search.Plan, query string, opts search.Options, legs Legs) (*Result, error) {
	// A sampled leg draws under Λ/ρ/seed, which the leg wire does not
	// carry: sampled queries always run in process.
	if opts.Lambda > 0 {
		legs = nil
	}
	if e.n == 1 && legs == nil {
		return e.searchOne(ctx, plan, query, opts)
	}
	start := time.Now()
	if plan.Algo == search.AlgoAuto {
		st, err := e.PlanStats(ctx, query, opts, legs)
		if err != nil {
			return nil, err
		}
		plan = search.ChoosePlan(search.AlgoAuto, st)
	}
	return e.scatterGather(ctx, start, plan, query, opts, legs)
}

// searchOne is the one-shard engine's query: the resident unit's executor
// with the caller's options untouched, so top-k pruning, stage timings,
// plan statistics and sampling are the executor's own. plan.Algo may be
// Auto (one prepare serves both the planner and the execution). A plan
// the planner resolved earlier is reported as given, candidate-root count
// included: the resolved algorithm's own prepare may skip the
// intersection (explicit PATTERNENUM reports -1) that an Auto run counts.
func (e *Engine) searchOne(ctx context.Context, plan search.Plan, query string, opts search.Options) (*Result, error) {
	res, err := search.Execute(ctx, e.units[0].ix, query, plan.Algo, opts)
	if err != nil {
		return nil, err
	}
	pt := e.units[0].ix.PatternTable()
	out := &Result{Patterns: make([]RankedPattern, len(res.Patterns)), Stats: res.Stats, Plan: res.Plan}
	for i, rp := range res.Patterns {
		out.Patterns[i] = RankedPattern{Pattern: rp.Pattern, Table: pt, Agg: rp.Agg, Score: rp.Score, Trees: rp.Trees}
	}
	if plan.Auto {
		out.Plan = plan
		out.Stats.CandidateRoots = plan.Stats.CandidateRoots
	}
	return out, nil
}

// scatterOptions lowers the caller's options into the per-shard scatter
// options shared by every execution path.
func (e *Engine) scatterOptions(opts search.Options) search.Options {
	so := opts
	so.K = allK
	so.CollectRootAggs = true
	// The per-query worker budget is split across the shard scatter (like
	// the build path): N shard goroutines each running a pool of
	// Workers/N, not N full pools competing for the same cores. Parallel
	// execution is result-identical at any pool size, so this is purely a
	// scheduling choice.
	so.Workers = e.splitWorkers(opts.Workers)
	// LINEARENUM's sampled path selects its estimated local top-k for
	// exact re-scoring; selection must stay at the caller's k (per shard,
	// mirroring the one-shard per-type selection) rather than the
	// unbounded retention heap, or sampling would re-score everything and
	// stop saving work. Sharded sampling is shard-local and approximate
	// either way.
	if opts.Lambda > 0 {
		so.SampleSelectK = opts.K
		if so.SampleSelectK <= 0 {
			so.SampleSelectK = 100
		}
	}
	// Trees are materialized after the global cut, for the winners only.
	so.SkipTrees = true
	return so
}

// scatterGather is Search's scatter-gather body. plan.Algo is resolved
// (never Auto), and start anchors the stage accounting so probe time
// already spent counts as prepare. Each shard's leg runs in its own
// goroutine: through legs when given, its partial checked and decoded in
// that goroutine, and on the resident shard's executor when legs is nil
// or the remote leg fails. The gather then folds the legs into the global
// top-k.
func (e *Engine) scatterGather(ctx context.Context, start time.Time, plan search.Plan, query string, opts search.Options, legs Legs) (*Result, error) {
	probed := time.Now()
	so := e.scatterOptions(opts)
	outs := make([]shardOut, e.n)
	e.scatter(func(si int) {
		if legs != nil {
			if p, err := legs.Scatter(ctx, si, plan.Algo); err == nil {
				if out, err := e.fromWire(si, query, p); err == nil {
					outs[si] = out
					return
				}
			}
		}
		res, err := search.Execute(ctx, e.units[si].ix, query, plan.Algo, so)
		if err != nil {
			outs[si].err = err
			return
		}
		outs[si] = shardOut{patterns: res.Patterns, stats: res.Stats, plan: res.Plan}
	})
	scattered := time.Now()
	for si := range outs {
		if outs[si].err != nil {
			return nil, outs[si].err
		}
	}

	// Stage accounting for the scatter: the planner probe plus the slowest
	// shard's own prepare stage count as prepare; the rest of the scatter
	// wall time is enumeration (each shard's aggregate/rank under
	// SkipTrees is noise).
	var shardPrep time.Duration
	for si := range outs {
		if p := outs[si].stats.Stages.Prepare; p > shardPrep {
			shardPrep = p
		}
		if !outs[si].plan.Auto {
			// Fold per-shard prepare statistics into the plan for
			// observability; an Auto plan already carries the (richer)
			// merged probe statistics.
			if plan.Auto {
				continue
			}
			if si == 0 {
				plan.Stats = outs[si].plan.Stats
			} else {
				plan.Stats.Merge(outs[si].plan.Stats)
			}
		}
	}
	var stages search.StageTimings
	stages.Prepare = probed.Sub(start) + shardPrep
	if stages.Enumerate = scattered.Sub(probed) - shardPrep; stages.Enumerate < 0 {
		stages.Enumerate = 0
	}

	// Gather: merge pattern signatures across shards by content key.
	tAgg := time.Now()
	byKey := map[string]*mergedPat{}
	for si := range outs {
		pt := e.units[si].ix.PatternTable()
		for _, rp := range outs[si].patterns {
			key := rp.Pattern.ContentKey(pt)
			mp, ok := byKey[key]
			if !ok {
				mp = &mergedPat{}
				byKey[key] = mp
			}
			mp.rootAggs = append(mp.rootAggs, rp.RootAggs...)
			mp.contrib = append(mp.contrib, contribRef{shard: si, pattern: rp.Pattern})
		}
	}

	// Fold each pattern's per-root partials in ascending root order — the
	// exact sequence a one-shard engine folds — then cut to the global
	// top-k.
	k := opts.K
	if k == 0 {
		k = 100
	}
	top := core.NewTopK[*mergedPat](k)
	for key, mp := range byKey {
		sort.SliceStable(mp.rootAggs, func(i, j int) bool { return mp.rootAggs[i].Root < mp.rootAggs[j].Root })
		for _, ra := range mp.rootAggs {
			mp.agg.Merge(ra.Agg)
		}
		top.Offer(mp.agg.Value(opts.Agg), key, mp)
	}
	stages.Aggregate = time.Since(tAgg)

	stats := e.mergeStats(plan.Algo, outs)
	stats.PatternsFound = len(byKey)

	tRank := time.Now()
	res := &Result{Patterns: make([]RankedPattern, 0, top.Len()), Plan: plan}
	for _, mp := range top.Results() {
		res.Patterns = append(res.Patterns, RankedPattern{
			Pattern: mp.contrib[0].pattern,
			Table:   e.units[mp.contrib[0].shard].ix.PatternTable(),
			Agg:     mp.agg,
			Score:   mp.agg.Value(opts.Agg),
		})
	}

	// Materialize tables for the winners only, from each contributing
	// shard's pattern-first index.
	if !opts.SkipTrees {
		if err := e.fillTrees(ctx, outs, top.Results(), res.Patterns, opts); err != nil {
			return nil, err
		}
	}
	stages.Rank = time.Since(tRank)
	stats.Stages = stages
	stats.Elapsed = time.Since(start)
	res.Stats = stats
	return res, nil
}

// mergeStats folds the per-shard counters. Candidate-root partitions are
// disjoint, so counts add; EmptyChecked is the summed per-shard waste (a
// combination can be empty on one shard and populated on another, so it is
// not comparable to a one-shard run's counter).
func (e *Engine) mergeStats(algo search.Algo, outs []shardOut) search.QueryStats {
	stats := search.QueryStats{Surfaces: outs[0].stats.Surfaces, Words: outs[0].stats.Words}
	stats.CandidateRoots = -1
	if algo != search.AlgoPE {
		stats.CandidateRoots = 0
		for i := range outs {
			stats.CandidateRoots += outs[i].stats.CandidateRoots
		}
	}
	for i := range outs {
		stats.SampledRoots += outs[i].stats.SampledRoots
		stats.TreesFound += outs[i].stats.TreesFound
		stats.EmptyChecked += outs[i].stats.EmptyChecked
		stats.BoundPruned += outs[i].stats.BoundPruned
	}
	return stats
}

// fillTrees merges each winning pattern's table rows across its
// contributing shards in ascending root order, truncated to the
// per-pattern cap — exactly the rows a one-shard materialization pass
// produces, which walks roots ascending and stops at the cap.
func (e *Engine) fillTrees(ctx context.Context, outs []shardOut, winners []*mergedPat, patterns []RankedPattern, opts search.Options) error {
	maxTrees := opts.MaxTreesPerPattern
	var wg sync.WaitGroup
	for i, mp := range winners {
		wg.Add(1)
		go func(i int, mp *mergedPat) {
			defer wg.Done()
			var trees []core.Subtree
			for _, c := range mp.contrib {
				trees = append(trees, search.MaterializeTrees(ctx, e.units[c.shard].ix, outs[c.shard].stats.Words, c.pattern, opts)...)
			}
			sort.SliceStable(trees, func(i, j int) bool { return trees[i].Root < trees[j].Root })
			if maxTrees > 0 && len(trees) > maxTrees {
				trees = trees[:maxTrees]
			}
			patterns[i].Trees = trees
		}(i, mp)
	}
	wg.Wait()
	return ctx.Err()
}

// RankedTree is one globally ranked subtree; Pattern's IDs resolve in
// Table (the owning shard's pattern table).
type RankedTree struct {
	search.RankedTree
	Table *core.PatternTable
}

// TopTrees ranks individual valid subtrees across all shards. A subtree
// lives wholly on the shard owning its root, so per-shard top-k lists
// merge exactly under the same (score, content key) order a single index
// uses.
func (e *Engine) TopTrees(query string, k int, opts search.Options) ([]RankedTree, search.QueryStats) {
	type out struct {
		trees []search.RankedTree
		keys  []string
		table *core.PatternTable
		stats search.QueryStats
	}
	outs := make([]out, e.n)
	e.scatter(func(si int) {
		ix := e.units[si].ix
		trees, stats := search.TopTrees(ix, query, k, opts)
		keys := make([]string, len(trees))
		for i, rt := range trees {
			keys[i] = search.TreeMergeKey(ix, rt)
		}
		outs[si] = out{trees: trees, keys: keys, table: ix.PatternTable(), stats: stats}
	})
	top := core.NewTopK[RankedTree](k)
	stats := search.QueryStats{Surfaces: outs[0].stats.Surfaces, Words: outs[0].stats.Words}
	for si := range outs {
		for i, rt := range outs[si].trees {
			top.Offer(rt.Score, outs[si].keys[i], RankedTree{RankedTree: rt, Table: outs[si].table})
		}
		stats.CandidateRoots += outs[si].stats.CandidateRoots
		stats.TreesFound += outs[si].stats.TreesFound
		stats.BoundPruned += outs[si].stats.BoundPruned
	}
	return top.Results(), stats
}

// CountAllContent counts a query's distinct tree patterns across all
// shards (for query explanation): the per-shard pattern sets union by
// content key, since per-shard pattern tables intern IDs independently.
// The caller bounds the work with the planner probe's subtree count.
func (e *Engine) CountAllContent(query string) int {
	seen := map[string]struct{}{}
	for si := 0; si < e.n; si++ {
		for k := range search.CountAllContent(e.units[si].ix, query) {
			seen[k] = struct{}{}
		}
	}
	return len(seen)
}
