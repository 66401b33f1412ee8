// Package search implements the paper's three query-processing approaches
// for the d-height tree pattern problem:
//
//	PETopK   — PATTERNENUM (Section 4.1, Algorithm 2): enumerate path-pattern
//	           combinations per root type over the pattern-first index and
//	           join them at candidate roots.
//	LETopK   — LINEARENUM-TOPK (Section 4.2, Algorithms 3–4): find candidate
//	           roots over the root-first index, expand per root, partition by
//	           root type, and optionally sample roots (Λ, ρ) to estimate
//	           pattern scores.
//	Baseline — the enumeration–aggregation adaption of prior subtree-search
//	           work (Section 2.3): online backward search for candidate
//	           roots, online path enumeration, group-by pattern.
package search

import (
	"context"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// Options configure a query.
type Options struct {
	// K is the number of tree patterns to return; defaults to 100
	// (the paper's default in Section 5.1).
	K int
	// Agg aggregates subtree scores into pattern scores; default sum.
	Agg core.Agg
	// Scorer weighs score1/score2/score3; zero value means the paper's
	// defaults z1=-1, z2=1, z3=1.
	Scorer *core.Scorer
	// Lambda is LETopK's sampling threshold Λ: sampling activates for a
	// root type when its valid-subtree count NR >= Lambda. Lambda <= 0
	// disables sampling entirely (Λ = +∞ in the paper's notation).
	Lambda int64
	// Rho is LETopK's sampling rate ρ in (0,1]; values outside the range
	// disable sampling.
	Rho float64
	// Seed drives sampling; fixed default keeps runs reproducible.
	Seed int64
	// RequireTreeShape drops path tuples whose union re-converges. Off by
	// default, which keeps the paper's count NR = Σ_r Π_i |Paths(wi,r)|;
	// on, it is the strict-tree ablation (core.Subtree.IsTreeShaped).
	RequireTreeShape bool
	// SkipTrees leaves the valid subtrees of the final top-k patterns
	// unmaterialized (table answers need them). Default false; scatter
	// legs and experiments that only time ranking set it.
	SkipTrees bool
	// MaxTreesPerPattern caps materialized subtrees per pattern
	// (0 = unlimited). Scoring always uses all subtrees.
	MaxTreesPerPattern int
	// Workers bounds intra-query parallelism: the candidate-root frontier
	// is sharded across a worker pool of this size (PATTERNENUM by root
	// type and first pattern choice, LINEARENUM-TOPK and the baseline by
	// root type), with per-worker top-k heaps merged into the global
	// queue. 0 (or negative) means GOMAXPROCS; 1 forces the serial path.
	// Parallel execution returns exactly the serial results (parallel.go
	// explains why the sharding preserves bit-identical scores).
	Workers int
	// CollectRootAggs records, per ranked pattern, the per-candidate-root
	// partial aggregates (Theorem 5's decomposition). A scatter-gather
	// engine whose shards partition the candidate roots needs these to
	// merge the same tree pattern across shards bit-exactly: partials are
	// re-folded in ascending root order, reproducing the one-index fold.
	CollectRootAggs bool
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 100
	}
	if o.Scorer == nil {
		s := core.DefaultScorer()
		o.Scorer = &s
	}
	if o.Rho <= 0 || o.Rho > 1 {
		o.Rho = 1
	}
	return o
}

// samplingEnabled reports whether (Λ, ρ) actually activate sampling.
func (o Options) samplingEnabled() bool { return o.Lambda > 0 && o.Rho < 1 }

// RankedPattern is one answer: a tree pattern with its aggregate score and
// (optionally) the valid subtrees that compose its table rows.
type RankedPattern struct {
	Pattern core.TreePattern
	Agg     core.PatternScore
	Score   float64
	Trees   []core.Subtree
	// RootAggs is the per-root decomposition of Agg in ascending root
	// order, populated only under Options.CollectRootAggs. Folding these
	// with PatternScore.Merge in root order reproduces Agg bit-exactly.
	RootAggs []RootAgg
}

// RootAgg is one candidate root's contribution to a pattern's aggregate.
type RootAgg struct {
	Root kg.NodeID
	Agg  core.PatternScore
}

// QueryStats instruments one query execution.
type QueryStats struct {
	Surfaces       []string // query tokens as typed
	Words          []text.WordID
	Elapsed        time.Duration
	Stages         StageTimings // per-stage wall clock of the staged pipeline
	CandidateRoots int
	SampledRoots   int
	PatternsFound  int   // nonempty tree patterns seen
	TreesFound     int64 // valid subtrees aggregated (sampled runs count sampled trees)
	EmptyChecked   int64 // pattern combinations checked that had no subtree (PETopK waste)
	// BoundPruned counts enumeration units the streaming executor's
	// k-th-score bound discarded before expansion: tree-pattern
	// combinations (PATTERNENUM) or candidate roots (TopTrees). Pruned
	// units never reach PatternsFound or EmptyChecked. Always 0 under
	// CollectRootAggs (the shard scatter must surface every pattern
	// regardless of local rank) and in LINEARENUM
	// (its per-root partial aggregates are lower bounds of the final
	// pattern scores, so no sound mid-enumeration cut exists).
	BoundPruned int64
}

// Result is the output of one query.
type Result struct {
	Patterns []RankedPattern
	Stats    QueryStats
	// Plan records the resolved algorithm and the planner's statistics.
	Plan Plan
}

// ResolveQuery tokenizes q against a corpus dictionary (an index's, or the
// engine's one per epoch) and returns the distinct canonical word IDs. Words absent from the corpus resolve to
// text.NoWord: the query then has no answers (every keyword must be
// contained in each subtree), and callers get an empty result rather than
// an error.
func ResolveQuery(d *text.Dict, q string) (ids []text.WordID, surfaces []string) {
	raw, surf := d.QueryTokens(q)
	seen := map[text.WordID]bool{}
	for i, id := range raw {
		if id != text.NoWord && seen[id] {
			continue // q is a set of words
		}
		seen[id] = true
		ids = append(ids, id)
		surfaces = append(surfaces, surf[i])
	}
	return ids, surfaces
}

// queryable reports whether all keywords have postings; a query with an
// unknown or unmatched keyword has no valid subtrees.
func queryable(ix *index.Index, words []text.WordID) bool {
	if len(words) == 0 {
		return false
	}
	for _, w := range words {
		if w == text.NoWord || len(ix.Roots(w)) == 0 {
			return false
		}
	}
	return true
}

// intersectSorted intersects sorted NodeID lists into dst[:0] (pass nil for
// a fresh slice), the root-intersection primitive of Algorithm 2 line 5 and
// Algorithm 3 line 1. It starts from the smallest list and filters it
// against each other list by galloping, so the cost is
// O(|smallest| · log(|other| / |smallest|)) per list rather than a scan of
// the longest. dst must not alias any input.
func intersectSorted(dst []kg.NodeID, lists ...[]kg.NodeID) []kg.NodeID {
	if len(lists) == 0 {
		return nil
	}
	smallest := 0
	for i, l := range lists {
		if len(l) < len(lists[smallest]) {
			smallest = i
		}
	}
	dst = append(dst[:0], lists[smallest]...)
	for i, l := range lists {
		if i == smallest {
			continue
		}
		// Keep, in place, the elements of dst that l contains.
		kept, c := 0, 0
		for _, v := range dst {
			if c = index.Gallop(l, c, v); c == len(l) {
				break
			}
			if l[c] == v {
				dst[kept] = v
				kept++
			}
		}
		if dst = dst[:kept]; kept == 0 {
			break
		}
	}
	return dst
}

// aggregatePattern scores every subtree of the tree pattern whose
// per-keyword posting groups are given, across the given ascending roots,
// using the pattern-first index, without materializing trees. A hit on pc
// returns early with a partial score; the caller is aborting anyway.
//
// The fold is canonically two-level — subtree scores fold into a per-root
// partial, per-root partials Merge in ascending root order — so that the
// shard layer, which re-folds per-root partials gathered from disjoint
// root partitions, reproduces exactly these bits (see Options.
// CollectRootAggs). Every aggregation site in this package uses the same
// shape.
//
// sc walks each group with one monotone run cursor and lends the term
// lists and the kernel, so nothing is searched or allocated per
// (pattern, root).
func aggregatePattern(g *kg.Graph, groups []index.Group, roots []kg.NodeID, o *Options, pc *pollCancel, sc *aggScratch) (core.PatternScore, []RootAgg) {
	var agg core.PatternScore
	var rootAggs []RootAgg
	if o.CollectRootAggs {
		rootAggs = make([]RootAgg, 0, len(roots))
	}
	sc.open(groups)
	for _, r := range roots {
		if pc.hit() {
			break
		}
		if !sc.seek(r) {
			continue
		}
		local := sc.foldRoot(g, r, o, pc)
		if local.Count == 0 {
			continue // every tuple filtered out (RequireTreeShape)
		}
		agg.Merge(local)
		if o.CollectRootAggs {
			rootAggs = append(rootAggs, RootAgg{Root: r, Agg: local})
		}
	}
	return agg, rootAggs
}

// materializeTrees collects the valid subtrees of tp (up to the per-pattern
// cap) across all roots where it is nonempty, in (root, tuple) order, via
// the pattern-first index — the one place whole paths are built, for the
// final k patterns only. The walk borrows a pooled scratch, and the
// subtrees' paths and terms are carved from two slabs, sized for n
// subtrees when n > 0 (the pattern's subtree count, when the caller has
// it), so a pattern costs three allocations, not two per subtree.
func materializeTrees(ix *index.Index, words []text.WordID, tp core.TreePattern, n int, o Options, pc *pollCancel) []core.Subtree {
	m := len(words)
	groups := make([]index.Group, m)
	rootLists := make([][]kg.NodeID, m)
	for i, w := range words {
		grp, ok := ix.Group(w, tp.Paths[i])
		if !ok {
			return nil
		}
		groups[i], rootLists[i] = grp, grp.Roots()
	}
	sc := aggScratchPool.Get().(*aggScratch)
	defer func() {
		sc.release()
		aggScratchPool.Put(sc)
	}()
	sc.open(groups)
	if o.MaxTreesPerPattern > 0 {
		n = min(n, o.MaxTreesPerPattern)
	}
	var out []core.Subtree
	var paths []core.Path
	var terms []core.ScoreTerms
	if n > 0 {
		out, paths, terms = make([]core.Subtree, 0, n), make([]core.Path, 0, n*m), make([]core.ScoreTerms, 0, n*m)
	}
roots:
	for _, r := range intersectSorted(nil, rootLists...) {
		if !sc.seek(r) {
			continue
		}
		for ok := sc.tw.start(sc.lists); ok; ok = sc.tw.next() {
			if pc.hit() || (o.MaxTreesPerPattern > 0 && len(out) >= o.MaxTreesPerPattern) {
				break roots
			}
			if o.RequireTreeShape && !sc.treeShaped(ix.Graph(), r, sc.tw.idx) {
				continue
			}
			out = append(out, core.Subtree{Root: r})
			for i, k := range sc.tw.idx {
				paths = append(paths, sc.sets[i].Path(k))
				terms = append(terms, sc.lists[i][k])
			}
		}
	}
	for t := range out {
		lo, hi := t*m, (t+1)*m
		out[t].Paths, out[t].Terms = paths[lo:hi:hi], terms[lo:hi:hi]
	}
	return out
}

// MaterializeTrees collects the valid subtrees of one ranked tree pattern
// (up to Options.MaxTreesPerPattern, in ascending root order) through the
// pattern-first index. The scatter-gather engine uses it to fill in tables
// for globally ranked patterns after the per-shard searches ran with
// SkipTrees. n, when positive, is the pattern's subtree count on ix (its
// Agg.Count there), which sizes the result.
func MaterializeTrees(ctx context.Context, ix *index.Index, words []text.WordID, tp core.TreePattern, n int, opts Options) []core.Subtree {
	o := opts.withDefaults()
	return materializeTrees(ix, words, tp, n, o, &pollCancel{ctx: ctx})
}

// Table renders a ranked pattern as a table answer.
func (rp RankedPattern) Table(ix *index.Index) core.Table {
	return core.ComposeTable(ix.Graph(), ix.PatternTable(), rp.Pattern, rp.Trees)
}
