package shard

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/search"
	"kbtable/internal/text"
)

// allK makes per-shard executors retain every pattern they find. Local
// top-k pruning would be incorrect here: a pattern whose roots split
// across shards can rank below each shard's k-th local score yet inside
// the global top-k once its partials merge, so shards must surface every
// pattern and the cut happens only after the gather. The flip side is
// that a sharded query's transient memory is proportional to the full
// pattern/root answer set, not to k (the same regime as LINEARENUM's
// aggregation dictionary); explosion queries should be fenced with
// Engine.CountAllContent / kbtable.Explain before execution, exactly as
// the paper fences exact enumeration. The known follow-up is a bounded
// two-phase gather with score upper bounds: the probe reports per-pattern
// bounds, their sum over shards yields a global k-th-score threshold, and
// every leg prunes against it. Every leg — resident, remote or fallback —
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
// Table — the pattern table of the lowest-numbered contributing shard (for
// the baseline, that shard's per-query online table); Trees are merged
// across all contributing shards in ascending root order.
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

// shardOut is one shard's scatter result in algorithm-neutral form.
type shardOut struct {
	patterns []search.RankedPattern
	table    *core.PatternTable
	stats    search.QueryStats
	plan     search.Plan
	words    []text.WordID // the shard's resolution of the query
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

// mergedPat accumulates one pattern signature across shards.
type mergedPat struct {
	pattern  core.TreePattern
	table    *core.PatternTable
	rootAggs []search.RootAgg
	agg      core.PatternScore // fold of rootAggs in ascending root order
	contrib  []contribRef
	trees    []core.Subtree // baseline only: gathered during the scatter
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
	// The baseline gathers trees rather than per-root aggregates, and a
	// sampled leg draws under Λ/ρ/seed, which the leg wire does not carry:
	// both always run in process.
	if plan.Algo == search.AlgoBaseline || opts.Lambda > 0 {
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
	return e.scatterGather(ctx, start, plan, query, opts, legs, func(si int, so search.Options) (*search.Result, error) {
		return e.searchShard(ctx, si, plan.Algo, query, so)
	})
}

// searchOne is the one-shard engine's query: the resident unit's executor
// with the caller's options untouched, so top-k pruning, stage timings,
// plan statistics and sampling are the executor's own. plan.Algo may be
// Auto (one prepare serves both the planner and the execution).
func (e *Engine) searchOne(ctx context.Context, plan search.Plan, query string, opts search.Options) (*Result, error) {
	res, err := e.searchShard(ctx, 0, plan.Algo, query, opts)
	if err != nil {
		return nil, err
	}
	out := e.oneResult(res)
	if plan.Auto {
		out.Plan = plan
	}
	return out, nil
}

// oneResult lifts a one-shard executor result into the engine's form.
func (e *Engine) oneResult(res *search.Result) *Result {
	pt := e.table(0, res)
	out := &Result{Patterns: make([]RankedPattern, len(res.Patterns)), Stats: res.Stats, Plan: res.Plan}
	for i, rp := range res.Patterns {
		out.Patterns[i] = RankedPattern{Pattern: rp.Pattern, Table: pt, Agg: rp.Agg, Score: rp.Score, Trees: rp.Trees}
	}
	return out
}

// table returns the pattern table a shard executor's result resolves in:
// the baseline interns its own per query, the others use the index's.
func (e *Engine) table(si int, res *search.Result) *core.PatternTable {
	if res.Table != nil {
		return res.Table
	}
	return e.units[si].ix.PatternTable()
}

// searchShard runs one resident shard's executor.
func (e *Engine) searchShard(ctx context.Context, si int, algo search.Algo, query string, so search.Options) (*search.Result, error) {
	ex := search.Executor{Ix: e.units[si].ix}
	if algo == search.AlgoBaseline {
		var err error
		if ex.BL, err = e.baseline(si); err != nil {
			return nil, err
		}
	}
	return ex.Search(ctx, query, algo, so)
}

// scatterOptions lowers the caller's options into the per-shard scatter
// options shared by every execution path.
func (e *Engine) scatterOptions(algo search.Algo, opts search.Options) search.Options {
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
	// Trees for PE/LE are materialized after the global cut; the baseline
	// necessarily collects trees while enumerating (its dictionary IS the
	// materialization), so its per-shard caps are merged instead.
	so.SkipTrees = algo != search.AlgoBaseline
	return so
}

// scatterGather is the one scatter-gather body, under Search and
// SearchPrepared alike. plan.Algo is resolved (never Auto), and start
// anchors the stage accounting so probe time already spent counts as
// prepare. Each shard's leg runs in its own goroutine: through legs when
// given, its partial checked and decoded in that goroutine, and through
// local — the resident shard's executor — when legs is nil or the remote
// leg fails. The gather then folds the legs into the global top-k.
func (e *Engine) scatterGather(ctx context.Context, start time.Time, plan search.Plan, query string, opts search.Options, legs Legs, local func(si int, so search.Options) (*search.Result, error)) (*Result, error) {
	probed := time.Now()
	so := e.scatterOptions(plan.Algo, opts)
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
		res, err := local(si, so)
		if err != nil {
			outs[si].err = err
			return
		}
		// Stats.Words is this shard's resolution of the query; keep it for
		// the tree-materialization pass instead of resolving again.
		outs[si] = shardOut{patterns: res.Patterns, table: e.table(si, res), stats: res.Stats, plan: res.Plan, words: res.Stats.Words}
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
		for _, rp := range outs[si].patterns {
			key := rp.Pattern.ContentKey(outs[si].table)
			mp, ok := byKey[key]
			if !ok {
				mp = &mergedPat{pattern: rp.Pattern, table: outs[si].table}
				byKey[key] = mp
			}
			mp.rootAggs = append(mp.rootAggs, rp.RootAggs...)
			mp.contrib = append(mp.contrib, contribRef{shard: si, pattern: rp.Pattern})
			mp.trees = append(mp.trees, rp.Trees...)
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
			Pattern: mp.pattern,
			Table:   mp.table,
			Agg:     mp.agg,
			Score:   mp.agg.Value(opts.Agg),
		})
	}

	// Materialize tables for the winners only. Baseline trees were
	// gathered above; PE/LE trees come from each contributing shard's
	// pattern-first index now.
	if !opts.SkipTrees {
		if err := e.fillTrees(ctx, plan.Algo, outs, top.Results(), res.Patterns, opts); err != nil {
			return nil, err
		}
	}
	stages.Rank = time.Since(tRank)
	stats.Stages = stages
	stats.Elapsed = time.Since(start)
	res.Stats = stats
	return res, nil
}

// Prepared retains one query's prepare-stage output on every shard plus
// the merged planner statistics, bound to the engine snapshot it was
// built from. Executions run only enumerate→aggregate→rank per shard;
// Auto resolves from the merged statistics, exactly as Search resolves
// from a probe.
type Prepared struct {
	algo  search.Algo
	units []*search.Prepared
	stats search.PlanStats
}

// Plan resolves the plan the prepared query executes.
func (p *Prepared) Plan() search.Plan {
	return search.ChoosePlan(p.algo, p.stats)
}

// Prepare runs the prepare stage on every shard and retains the per-shard
// output. The merged statistics are identical to PlanStats' (same
// per-shard probes, same merge order), so a prepared Auto query resolves
// exactly as Search would. The baseline has no prepare stage.
func (e *Engine) Prepare(ctx context.Context, algo search.Algo, query string, opts search.Options) (*Prepared, error) {
	p := &Prepared{algo: algo, units: make([]*search.Prepared, e.n)}
	errs := make([]error, e.n)
	e.scatter(func(si int) {
		p.units[si], errs[si] = search.PrepareQuery(ctx, e.units[si].ix, query, algo, opts)
	})
	for si := range errs {
		if errs[si] != nil {
			return nil, errs[si]
		}
		if si == 0 {
			p.stats = p.units[si].Stats()
			continue
		}
		p.stats.Merge(p.units[si].Stats())
	}
	return p, nil
}

// SearchPrepared executes a prepared query: stages 2-4 of the pipeline
// over each shard's retained prepare, Auto resolved once per execution
// from the retained statistics. Answers are bit-identical to a fresh
// Search of the same query on the same engine snapshot.
func (e *Engine) SearchPrepared(ctx context.Context, p *Prepared, opts search.Options) (*Result, error) {
	if e.n == 1 {
		res, err := search.ExecutePrepared(ctx, e.units[0].ix, p.units[0], p.algo, opts)
		if err != nil {
			return nil, err
		}
		return e.oneResult(res), nil
	}
	start := time.Now()
	plan := p.Plan()
	// Prepared legs run only in process, so no query text is needed.
	return e.scatterGather(ctx, start, plan, "", opts, nil, func(si int, so search.Options) (*search.Result, error) {
		return search.ExecutePrepared(ctx, e.units[si].ix, p.units[si], plan.Algo, so)
	})
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
func (e *Engine) fillTrees(ctx context.Context, algo search.Algo, outs []shardOut, winners []*mergedPat, patterns []RankedPattern, opts search.Options) error {
	maxTrees := opts.MaxTreesPerPattern
	finish := func(trees []core.Subtree) []core.Subtree {
		sort.SliceStable(trees, func(i, j int) bool { return trees[i].Root < trees[j].Root })
		if maxTrees > 0 && len(trees) > maxTrees {
			trees = trees[:maxTrees]
		}
		return trees
	}
	if algo == search.AlgoBaseline {
		for i, mp := range winners {
			patterns[i].Trees = finish(mp.trees)
		}
		return nil
	}
	var wg sync.WaitGroup
	for i, mp := range winners {
		wg.Add(1)
		go func(i int, mp *mergedPat) {
			defer wg.Done()
			var trees []core.Subtree
			for _, c := range mp.contrib {
				trees = append(trees, search.MaterializeTrees(ctx, e.units[c.shard].ix, outs[c.shard].words, c.pattern, opts)...)
			}
			patterns[i].Trees = finish(trees)
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

// NumCandidateRoots sums the per-shard candidate-root counts (the shards
// partition the candidate set).
func (e *Engine) NumCandidateRoots(query string) int {
	n := 0
	for si := 0; si < e.n; si++ {
		n += search.NumCandidateRoots(e.units[si].ix, query)
	}
	return n
}

// CountAllContent unions the per-shard pattern content-key sets and sums
// subtree counts (for query explanation), with search.CountAllCapped's
// budget semantics: the full subtree count — cheap, no enumeration — is
// computed first across all shards, and only when it fits the budget is
// pattern enumeration (whose cost the subtree count bounds) attempted.
func (e *Engine) CountAllContent(query string, budget int64) (patterns int, trees int64, exceeded bool) {
	for si := 0; si < e.n; si++ {
		t := search.SubtreeCount(e.units[si].ix, query)
		if t > math.MaxInt64-trees { // per-shard counts saturate; so does the sum
			trees = math.MaxInt64
			break
		}
		trees += t
	}
	if budget > 0 && trees > budget {
		return -1, trees, true
	}
	seen := map[string]struct{}{}
	for si := 0; si < e.n; si++ {
		keys, _, _ := search.CountAllContent(e.units[si].ix, query, 0)
		for k := range keys {
			seen[k] = struct{}{}
		}
	}
	return len(seen), trees, false
}
