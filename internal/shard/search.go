package shard

import (
	"context"
	"slices"
	"sync"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/kg"
	"kbtable/internal/search"
	"kbtable/internal/text"
)

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

// shardOut is one shard's scatter result: every pattern the shard holds
// for the query, in ascending content order (search.Scatter), resolving in
// the shard's own pattern table.
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

// PlanStats runs the prepare-only planner probe for a query's words, its
// one resolution against Dict, on every shard — through legs when given,
// on the resident shard when legs is nil or a leg fails — and merges the
// statistics in ascending shard order: candidate roots, frontier and
// posting lengths sum exactly (root partitions are disjoint); the pattern
// space sums too, over-counting patterns whose roots span shards —
// acceptable for a cost estimate and deterministic for a given engine. Statistics only steer Auto between two algorithms
// with identical answers, so remote ones are taken as given.
func (e *Engine) PlanStats(ctx context.Context, words []text.WordID, opts search.Options, legs Legs) (search.PlanStats, error) {
	stats := make([]search.PlanStats, e.n)
	errs := make([]error, e.n)
	e.scatter(func(si int) {
		if legs != nil {
			if w, err := legs.Probe(ctx, si); err == nil {
				stats[si] = fromWirePlanStats(w)
				return
			}
		}
		stats[si], errs[si] = search.PlanProbe(ctx, e.units[si].ix, words, opts)
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

// gathered is one pattern merged across shards: its aggregate and its
// contributors in ascending shard order.
type gathered struct {
	agg     core.PatternScore // fold of every contributor's root partials in ascending root order
	contrib []contribRef
}

// contribRef names a contributing shard and the pattern's local identity
// there (PatternIDs are shard-local).
type contribRef struct {
	shard   int
	pattern core.TreePattern
}

// compareContent orders two shards' patterns by content, each resolved in
// its own shard's pattern table.
func (e *Engine) compareContent(a, b contribRef) int {
	return a.pattern.CompareContent(e.units[a.shard].ix.PatternTable(), b.pattern, e.units[b.shard].ix.PatternTable())
}

// Search answers a query under algo. A one-shard engine without legs runs
// its executor directly, which resolves the query and Auto itself.
// Otherwise the query resolves once, against Dict, Auto by one planner
// decision over the merged per-shard probe, and every shard runs one leg —
// through legs when given — and scatterGather merges same-signature
// patterns exactly into the global top-k.
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
func (e *Engine) Search(ctx context.Context, algo search.Algo, query string, opts search.Options, legs Legs) (*Result, error) {
	// A sampled leg draws under Λ/ρ/seed, which the leg wire does not
	// carry: sampled queries always run in process.
	if opts.Lambda > 0 {
		legs = nil
	}
	if e.n == 1 && legs == nil {
		return e.searchOne(ctx, algo, query, opts)
	}
	start := time.Now()
	words, surfaces := search.ResolveQuery(e.Dict(), query)
	plan := search.Plan{Algo: algo}
	if algo == search.AlgoAuto {
		st, err := e.PlanStats(ctx, words, opts, legs)
		if err != nil {
			return nil, err
		}
		plan = search.ChoosePlan(algo, st)
	}
	return e.scatterGather(ctx, start, plan, words, surfaces, opts, legs)
}

// searchOne is the one-shard engine's query: the resident unit's executor
// with the caller's options untouched, so top-k pruning, stage timings,
// plan statistics and sampling are the executor's own. algo may be Auto
// (one prepare serves both the planner and the execution).
func (e *Engine) searchOne(ctx context.Context, algo search.Algo, query string, opts search.Options) (*Result, error) {
	res, err := search.Execute(ctx, e.units[0].ix, query, algo, opts)
	if err != nil {
		return nil, err
	}
	pt := e.units[0].ix.PatternTable()
	out := &Result{Patterns: make([]RankedPattern, len(res.Patterns)), Stats: res.Stats, Plan: res.Plan}
	for i, rp := range res.Patterns {
		out.Patterns[i] = RankedPattern{Pattern: rp.Pattern, Table: pt, Agg: rp.Agg, Score: rp.Score, Trees: rp.Trees}
	}
	return out, nil
}

// leg runs shard si's scatter leg on the resident shard, on Workers/N of
// the query's worker budget (like the build path): N pools of Workers/N,
// not N full pools competing for the same cores, with identical results.
func (e *Engine) leg(ctx context.Context, si int, words []text.WordID, surfaces []string, algo search.Algo, opts search.Options) (*search.Result, error) {
	opts.Workers = e.splitWorkers(opts.Workers)
	return search.Scatter(ctx, e.units[si].ix, words, surfaces, algo, opts)
}

// scatterGather is Search's scatter-gather body. plan.Algo is resolved
// (never Auto), and start anchors the stage accounting so probe time
// already spent counts as prepare. Each shard's leg runs in its own
// goroutine: through legs when given, its partial checked and decoded in
// that goroutine, and on the resident shard when legs is nil or the
// remote leg fails. Every leg lists all of its shard's patterns in
// ascending content order, so the gather is a merge of the legs into the
// global top-k. The query's words and surfaces are the engine's one
// resolution against the epoch's dictionary, which every leg shares.
func (e *Engine) scatterGather(ctx context.Context, start time.Time, plan search.Plan, words []text.WordID, surfaces []string, opts search.Options, legs Legs) (*Result, error) {
	probed := time.Now()
	outs := make([]shardOut, e.n)
	e.scatter(func(si int) {
		if legs != nil {
			if p, err := legs.Scatter(ctx, si, plan.Algo); err == nil {
				if out, err := e.fromWire(si, len(words), p); err == nil {
					outs[si] = out
					return
				}
			}
		}
		res, err := e.leg(ctx, si, words, surfaces, plan.Algo, opts)
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
	// wall time is enumeration (each leg's content sort is noise).
	var shardPrep time.Duration
	for si := range outs {
		if p := outs[si].stats.Stages.Prepare; p > shardPrep {
			shardPrep = p
		}
		// Fold per-shard prepare statistics into an explicit plan for
		// observability; an Auto plan already carries the (richer) merged
		// probe statistics.
		if plan.Auto {
			continue
		}
		if si == 0 {
			plan.Stats = outs[si].plan.Stats
		} else {
			plan.Stats.Merge(outs[si].plan.Stats)
		}
	}
	var stages search.StageTimings
	stages.Prepare = probed.Sub(start) + shardPrep
	if stages.Enumerate = scattered.Sub(probed) - shardPrep; stages.Enumerate < 0 {
		stages.Enumerate = 0
	}

	tAgg := time.Now()
	k := opts.K
	if k == 0 {
		k = 100
	}
	top, found := e.gather(outs, k, opts.Agg)
	stages.Aggregate = time.Since(tAgg)

	stats := e.mergeStats(plan.Algo, outs)
	stats.Surfaces, stats.Words, stats.PatternsFound = surfaces, words, found

	tRank := time.Now()
	winners := top.Results()
	res := &Result{Patterns: make([]RankedPattern, len(winners)), Plan: plan}
	for i, g := range winners {
		c := g.contrib[0]
		res.Patterns[i] = RankedPattern{
			Pattern: c.pattern,
			Table:   e.units[c.shard].ix.PatternTable(),
			Agg:     g.agg,
			Score:   g.agg.Value(opts.Agg),
		}
	}

	// Materialize tables for the winners only, from each contributing
	// shard's pattern-first index.
	if !opts.SkipTrees {
		if err := e.fillTrees(ctx, words, winners, res.Patterns, opts); err != nil {
			return nil, err
		}
	}
	stages.Rank = time.Since(tRank)
	stats.Stages = stages
	stats.Elapsed = time.Since(start)
	res.Stats = stats
	return res, nil
}

// gather merges the legs' content-ordered pattern lists, consuming them
// (D4M's associative-array addition), and returns the global top-k and
// the number of distinct patterns. Equal heads are one pattern: their root
// partials merge into the ascending run a one-shard engine folds, so
// scores keep their bits. A score tie is broken by content, comparing the
// lead contributors' patterns across their shards' tables.
func (e *Engine) gather(outs []shardOut, k int, agg core.Agg) (*core.TopK[gathered], int) {
	table := func(si int) *core.PatternTable { return e.units[si].ix.PatternTable() }
	head := func(si int) core.TreePattern { return outs[si].patterns[0].Pattern }
	top := core.NewTopK(k, func(a, b gathered) int { return e.compareContent(a.contrib[0], b.contrib[0]) })
	var lead []int // the shards whose head is the least pattern, ascending
	var runs [][]search.RootAgg
	for found := 0; ; found++ {
		lead, runs = lead[:0], runs[:0]
		for si := range outs {
			if len(outs[si].patterns) == 0 {
				continue
			}
			c := -1
			if len(lead) > 0 {
				c = head(si).CompareContent(table(si), head(lead[0]), table(lead[0]))
			}
			if c < 0 {
				lead = lead[:0]
			}
			if c <= 0 {
				lead = append(lead, si)
			}
		}
		if len(lead) == 0 {
			return top, found
		}
		var g gathered
		for _, si := range lead {
			runs = append(runs, outs[si].patterns[0].RootAggs)
		}
		mergeByRoot(runs, func(ra *search.RootAgg) kg.NodeID { return ra.Root }, func(ra *search.RootAgg) bool {
			g.agg.Merge(ra.Agg)
			return true
		})
		if score := g.agg.Value(agg); top.WouldAccept(score) {
			for _, si := range lead {
				g.contrib = append(g.contrib, contribRef{shard: si, pattern: head(si)})
			}
			top.Offer(score, g)
		}
		for _, si := range lead {
			outs[si].patterns = outs[si].patterns[1:]
		}
	}
}

// mergeByRoot visits the elements of runs (each ascending by root, no root
// in two) in ascending root order until visit returns false.
func mergeByRoot[T any](runs [][]T, root func(*T) kg.NodeID, visit func(*T) bool) {
	for {
		next := -1
		for i, r := range runs {
			if len(r) > 0 && (next < 0 || root(&r[0]) < root(&runs[next][0])) {
				next = i
			}
		}
		if next < 0 || !visit(&runs[next][0]) {
			return
		}
		runs[next] = runs[next][1:]
	}
}

// mergeStats folds the per-shard counters. Candidate-root partitions are
// disjoint, so counts add; EmptyChecked is the summed per-shard waste (a
// combination can be empty on one shard and populated on another, so it is
// not comparable to a one-shard run's counter).
func (e *Engine) mergeStats(algo search.Algo, outs []shardOut) search.QueryStats {
	stats := search.QueryStats{CandidateRoots: -1}
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
func (e *Engine) fillTrees(ctx context.Context, words []text.WordID, winners []gathered, patterns []RankedPattern, opts search.Options) error {
	maxTrees := opts.MaxTreesPerPattern
	var wg sync.WaitGroup
	for i, g := range winners {
		wg.Add(1)
		go func(i int, g gathered) {
			defer wg.Done()
			runs := make([][]core.Subtree, len(g.contrib))
			for j, c := range g.contrib {
				runs[j] = search.MaterializeTrees(ctx, e.units[c.shard].ix, words, c.pattern, opts)
			}
			mergeByRoot(runs, func(st *core.Subtree) kg.NodeID { return st.Root }, func(st *core.Subtree) bool {
				patterns[i].Trees = append(patterns[i].Trees, *st)
				return maxTrees <= 0 || len(patterns[i].Trees) < maxTrees
			})
		}(i, g)
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
// merge exactly under the order a single index uses (score, then
// search.CompareTrees). The query resolves once, against Dict.
func (e *Engine) TopTrees(query string, k int, opts search.Options) ([]RankedTree, search.QueryStats) {
	words, surfaces := search.ResolveQuery(e.Dict(), query)
	type out struct {
		trees []search.RankedTree
		table *core.PatternTable
		stats search.QueryStats
	}
	outs := make([]out, e.n)
	e.scatter(func(si int) {
		ix := e.units[si].ix
		trees, stats := search.TopTrees(ix, words, surfaces, k, opts)
		outs[si] = out{trees: trees, table: ix.PatternTable(), stats: stats}
	})
	top := core.NewTopK(k, func(a, b RankedTree) int { return search.CompareTrees(a.Table, a.RankedTree, b.Table, b.RankedTree) })
	stats := search.QueryStats{Surfaces: surfaces, Words: words}
	for si := range outs {
		for _, rt := range outs[si].trees {
			top.Offer(rt.Score, RankedTree{RankedTree: rt, Table: outs[si].table})
		}
		stats.CandidateRoots += outs[si].stats.CandidateRoots
		stats.TreesFound += outs[si].stats.TreesFound
		stats.BoundPruned += outs[si].stats.BoundPruned
	}
	return top.Results(), stats
}

// CountAllContent counts the distinct tree patterns of a query's words
// (resolved against Dict) across all shards (for query explanation): the
// per-shard pattern lists, merged and sorted by content, compact to one
// entry per pattern, since per-shard pattern tables intern IDs
// independently. The caller bounds the work
// with the planner probe's subtree count.
func (e *Engine) CountAllContent(words []text.WordID) int {
	var all []contribRef
	for si := 0; si < e.n; si++ {
		for _, tp := range search.CountAllContent(e.units[si].ix, words) {
			all = append(all, contribRef{shard: si, pattern: tp})
		}
	}
	slices.SortFunc(all, e.compareContent)
	return len(slices.CompactFunc(all, func(a, b contribRef) bool { return e.compareContent(a, b) == 0 }))
}
