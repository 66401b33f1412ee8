package search

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// LETopK runs LINEARENUM-TOPK (Algorithms 3–4): candidate roots are the
// intersection of the per-keyword root lists; each root is expanded through
// the root-first index into the tree patterns and valid subtrees under it.
// Roots are processed one type at a time, which bounds the aggregation
// dictionary by the largest per-type answer set (Section 4.2.1). When the
// per-type subtree count NR reaches opts.Lambda, roots are sampled with
// rate opts.Rho and pattern scores are estimated; the estimated local top-k
// patterns are then re-scored exactly before entering the global queue
// (Section 4.2.2).
func LETopK(ix *index.Index, query string, opts Options) *Result {
	words, surfaces := ResolveQuery(ix.Dict(), query)
	res, _ := Execute(context.Background(), ix, words, surfaces, AlgoLE, opts)
	return res
}

// leEnumerate is LINEARENUM-TOPK's enumerate stage over the prepared
// candidate roots (Algorithm 3 line 1 ran in prepare; lines 2-3's by-type
// partition too). Root types are sharded across the worker pool configured
// by Options.Workers; a type's whole pipeline — subtree counting,
// sampling, expansion, estimation, exact re-scoring — runs inside one
// shard, and sampling is seeded per type, so the parallel run returns
// exactly the serial results. ws holds one accumulator per worker slot,
// which the caller folds in the aggregate stage.
func leEnumerate(ctx context.Context, ix *index.Index, prep *prepared, o Options, ws []workerState[RankedPattern]) error {
	words := prep.words
	pt := ix.PatternTable()
	// Roots expand through per-worker scratch with the keyword predicate
	// pushed below pattern expansion (leScratch.fetch); LINEARENUM gets no
	// score pruning — its per-root partials are lower bounds, so no
	// mid-type cut is sound (stream.go). The scratch comes from a pool
	// shared across queries and goes back released (leScratch.release).
	scratches := make([]*leScratch, len(ws))
	for i := range scratches {
		scratches[i] = getLEScratch()
	}
	defer func() {
		for _, sc := range scratches {
			putLEScratch(sc)
		}
	}()
	return runShards(ctx, len(ws), len(prep.types), func(worker, ti int) {
		c := prep.types[ti]
		rc := prep.byType[c]
		st := &ws[worker].stats
		ltop := ws[worker].top
		pc := &pollCancel{ctx: ctx}
		sc := scratches[worker]

		// Line 4: NR = Σ_r Π_i |Paths(wi, r)| without enumeration — and,
		// like the sampling source, only when sampling can activate.
		rate := 1.0
		var rng *rand.Rand
		if o.samplingEnabled() && subtreeCount(ix, words, rc, nil) >= o.Lambda {
			rate = o.Rho
			rng = typeRNG(o.Seed, c)
		}

		// Lines 6-8: expand (a sample of) the roots of this type.
		dict := &sc.dict
		dict.reset()
		sc.rewind(len(words))
		for _, r := range rc {
			if pc.hit() {
				return
			}
			if rate < 1 && rng.Float64() >= rate {
				continue
			}
			st.SampledRoots++
			expandRoot(ix, words, r, &o, pc, sc, dict, nil)
		}

		st.PatternsFound += len(dict.entries)
		for i := range dict.entries {
			st.TreesFound += int64(dict.entries[i].agg.Count)
		}

		if rate < 1 {
			// Lines 9-11: rank by estimated score, then re-score the local
			// top-k exactly over all roots of this type in one filtered
			// pass (each root only expands pattern combinations that can
			// still hit a selected pattern).
			local := core.NewTopK(o.K, func(a, b *dictEntry) int { return a.tp.CompareContent(pt, b.tp, pt) })
			for i := range dict.entries {
				de := &dict.entries[i]
				local.Offer(de.agg.Scale(1/rate).Value(o.Agg), de)
			}
			exacts := aggregateSelected(ix, words, local.Results(), rc, &o, pc, sc)
			for i := range exacts.entries {
				if exact := &exacts.entries[i]; exact.agg.Count > 0 {
					offerPattern(&ws[worker], ltop, pt, &o, exact.tp.Paths, exact.agg, exact.rootAggs)
				}
			}
		} else {
			for i := range dict.entries {
				de := &dict.entries[i]
				offerPattern(&ws[worker], ltop, pt, &o, de.tp.Paths, de.agg, de.rootAggs)
			}
		}
	})
}

// subtreeCount computes NR = Σ_r Π_i |Paths(wi, r)| over ascending roots,
// saturating at MaxInt64 to stay meaningful on explosive queries. Each
// keyword's root cursor starts over per call. A hit on pc (nil never hits)
// stops the count early with the partial total (the caller is aborting
// anyway).
func subtreeCount(ix *index.Index, words []text.WordID, roots []kg.NodeID, pc *pollCancel) int64 {
	at := make([]int, len(words))
	var total int64
	for _, r := range roots {
		if pc.hit() {
			break
		}
		prod := 1.0
		for i, w := range words {
			prod *= float64(ix.NumPathsAt(w, r, &at[i]))
		}
		if prod >= math.MaxInt64-float64(total) {
			return math.MaxInt64
		}
		total += int64(prod)
	}
	return total
}

// expandRoot is subroutine EXPANDROOT of Algorithm 3: the product of
// Patterns(wi, r) gives the (necessarily non-empty) tree patterns under r;
// for each, the product of Paths(wi, r, Pi) gives its valid subtrees. One
// walk (leScratch.walkRoot) folds the root's whole term product into a
// partial per pattern combination; one pass over the combinations, in
// nextCombo's order, then merges each non-empty partial into dict.
//
// only == nil is the expansion proper: every combination with a surviving
// subtree gets (or finds) its dictionary entry. only != nil is the exact
// re-scoring pass over a dictionary pre-filled with the selected patterns:
// per keyword just the listed patterns are fetched, and a combination
// that is not in dict is skipped at the merge.
//
// Two-level fold (see aggregatePattern): this root's subtrees fold into a
// local partial that merges into the dictionary entry, so LE produces the
// same bits as PE and as the re-folded shard gather.
func expandRoot(ix *index.Index, words []text.WordID, r kg.NodeID, o *Options, pc *pollCancel, sc *leScratch, dict *leDict, only []map[core.PatternID]bool) {
	if !sc.fetch(ix, words, r, only) {
		return // some keyword has no path at r: predicate pushdown
	}
	for ok := sc.firstCombo(); ok; {
		if !sc.walkRoot(ix.Graph(), r, o, pc) {
			return
		}
		for _, local := range sc.locals {
			if local.Count > 0 { // else every tuple was filtered out (RequireTreeShape)
				mergeRoot(dict, sc.choice, r, local, o, only != nil)
			}
			ok = sc.nextCombo()
		}
	}
}

// mergeRoot merges root r's partial for the pattern with the given paths
// into its dictionary entry, which selected requires to exist already.
func mergeRoot(dict *leDict, paths []core.PatternID, r kg.NodeID, local core.PatternScore, o *Options, selected bool) {
	var de *dictEntry
	if selected {
		if de = dict.find(paths); de == nil {
			return // combination exists but was not selected
		}
	} else {
		de = dict.entry(paths)
	}
	de.agg.Merge(local)
	if o.CollectRootAggs {
		de.rootAggs = append(de.rootAggs, RootAgg{Root: r, Agg: local})
	}
}

// aggregateSelected exactly scores a set of selected tree patterns over
// the given roots in one pass: per root, each keyword's pattern list is
// intersected with the patterns the selection uses at that position, and
// only surviving combinations are expanded. Roots containing none of the
// selected patterns are skipped after m filtered run lookups. The result
// is sc.sel, one entry per selected pattern in selection order. A hit on
// pc returns early with partial scores; the caller is aborting anyway.
func aggregateSelected(ix *index.Index, words []text.WordID, selected []*dictEntry, roots []kg.NodeID, o *Options, pc *pollCancel, sc *leScratch) *leDict {
	sel := &sc.sel
	sel.reset()
	only := make([]map[core.PatternID]bool, len(words))
	for i := range only {
		only[i] = map[core.PatternID]bool{}
	}
	for _, de := range selected {
		sel.entry(de.tp.Paths)
		for i, p := range de.tp.Paths {
			only[i][p] = true
		}
	}
	sc.rewind(len(words))
	for _, r := range roots {
		if pc.hit() {
			break
		}
		expandRoot(ix, words, r, o, pc, sc, sel, only)
	}
	return sel
}

// CountAllCapped reports, for grouping queries in the experiments of
// Section 5, the total number of (non-empty) tree patterns and valid
// subtrees of a query, without ranking. Subtrees are counted as
// Σ_r Π_i |Paths(wi, r)|; patterns by enumerating the pattern products of
// every candidate root. budget caps the work: when the query has more than
// budget valid subtrees (budget > 0), pattern enumeration — whose cost is
// bounded by the subtree count — is skipped and exceeded is true with
// patterns = -1. The experiment harness uses this to identify explosion
// queries cheaply.
func CountAllCapped(ix *index.Index, query string, budget int64) (patterns int, trees int64, exceeded bool) {
	words, _ := ResolveQuery(ix.Dict(), query)
	pats, trees, exceeded := countAllKeyed(ix, words, budget)
	if exceeded {
		return -1, trees, true
	}
	return len(pats), trees, false
}

// CountAllContent is CountAllCapped's pattern set in content order
// (CompareContent), each pattern once, so lists computed over indexes
// with independently interned PatternIDs (the per-shard indexes of a
// scatter-gather engine) merge by content. words is the query's
// resolution against the index's dictionary (ResolveQuery).
func CountAllContent(ix *index.Index, words []text.WordID) []core.TreePattern {
	pt := ix.PatternTable()
	pats, _, _ := countAllKeyed(ix, words, 0)
	slices.SortFunc(pats, func(a, b core.TreePattern) int { return a.CompareContent(pt, b, pt) })
	return pats
}

// countAllKeyed enumerates the candidate roots' pattern products and
// returns each distinct tree pattern once, deduplicated by its
// PatternID key.
func countAllKeyed(ix *index.Index, words []text.WordID, budget int64) ([]core.TreePattern, int64, bool) {
	if !queryable(ix, words) {
		return nil, 0, false
	}
	rootLists := make([][]kg.NodeID, len(words))
	for i, w := range words {
		rootLists[i] = ix.Roots(w)
	}
	candidates := intersectSorted(nil, rootLists...)
	trees := subtreeCount(ix, words, candidates, nil)
	if budget > 0 && trees > budget {
		return nil, trees, true
	}

	seen := map[string]struct{}{}
	var pats []core.TreePattern
	m := len(words)
	patLists := make([][]core.PatternID, m)
	choice := make([]core.PatternID, m)
	for _, r := range candidates {
		ok := true
		for i, w := range words {
			patLists[i] = ix.PatternsAt(w, r)
			if len(patLists[i]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var rec func(i int)
		rec = func(i int) {
			if i == m {
				key := core.TreePattern{Paths: choice}.Key()
				if _, dup := seen[key]; !dup {
					seen[key] = struct{}{}
					pats = append(pats, core.TreePattern{Paths: slices.Clone(choice)})
				}
				return
			}
			for _, p := range patLists[i] {
				choice[i] = p
				rec(i + 1)
			}
		}
		rec(0)
	}
	return pats, trees, false
}
