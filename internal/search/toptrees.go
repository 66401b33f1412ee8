package search

import (
	"cmp"
	"math/bits"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// RankedTree is one individually-ranked valid subtree (Section 5.3
// compares these against tree patterns).
type RankedTree struct {
	Tree    core.Subtree
	Pattern core.TreePattern
	Score   float64
}

// TopTrees ranks individual valid subtrees by their tree scores
// (Equation 3), the "individual top-k" of Section 5.3 and the case study
// of Figures 14-15. It enumerates every valid subtree through the
// root-first index and keeps the top k. words and surfaces are the
// query's resolution against the index's dictionary (ResolveQuery).
func TopTrees(ix *index.Index, words []text.WordID, surfaces []string, k int, opts Options) ([]RankedTree, QueryStats) {
	start := time.Now()
	o := opts.withDefaults()
	stats := QueryStats{Surfaces: surfaces, Words: words}
	pt := ix.PatternTable()
	top := core.NewTopK(k, func(a, b RankedTree) int { return CompareTrees(pt, a, pt, b) })
	if !queryable(ix, words) {
		stats.Elapsed = time.Since(start)
		return top.Results(), stats
	}
	rootLists := make([][]kg.NodeID, len(words))
	for i, w := range words {
		rootLists[i] = ix.Roots(w)
	}
	candidates := intersectSorted(nil, rootLists...)
	stats.CandidateRoots = len(candidates)

	// Each root is pulled through the arena fetch (leScratch) and, once
	// the heap is full, whole roots whose posting-envelope bound cannot
	// displace the current k-th tree score are skipped — before any
	// posting is read. A pruned root credits TreesFound with its exact
	// subtree count (Π NumPathsAt), so the counter still reports the full
	// frontier an unpruned run enumerates; that bookkeeping is only exact
	// without the tree-shape filter, so RequireTreeShape disables the
	// pruning. The heap is the single serial top-k, so pruning decisions
	// are deterministic, and soundness follows as in stream.go: every tree
	// under a pruned root scores strictly below k retained trees. Tuples
	// are scored on the terms-only kernel; a tuple's paths are built only
	// once its score can enter the heap.
	pruneRoots := !o.RequireTreeShape
	sc := getLEScratch()
	defer putLEScratch(sc)
	sc.rewind(len(words))
	for _, r := range candidates {
		if pruneRoots && top.Len() >= k {
			if ub, tuples, ok := rootTreeUB(ix, words, r, o, sc.at); ok && !top.WouldAccept(ub) {
				stats.BoundPruned++
				stats.TreesFound += tuples
				continue
			}
		}
		if !sc.fetch(ix, words, r, nil) {
			continue // some keyword has no path at r
		}
		for ok := sc.firstCombo(); ok; ok = sc.nextCombo() {
			sc.chosen()
			tw := &sc.agg.tw
			for ok := tw.start(sc.agg.lists); ok; ok = tw.next() {
				if o.RequireTreeShape && !sc.agg.treeShaped(ix.Graph(), r, tw.idx) {
					continue
				}
				stats.TreesFound++
				score := tw.score(o.Scorer)
				if !top.WouldAccept(score) {
					continue
				}
				st := sc.agg.tree(r, tw.idx)
				tp := core.TreePattern{Paths: append([]core.PatternID(nil), sc.choice...)}
				top.Offer(score, RankedTree{Tree: st, Pattern: tp, Score: score})
			}
		}
	}
	stats.Elapsed = time.Since(start)
	return top.Results(), stats
}

// CompareTrees orders the subtree a, whose pattern is interned in pa,
// against b, interned in pb: by pattern content (CompareContent), then
// root, then each path's edge IDs, every ID compared by its 4
// little-endian bytes (the order the goldens and the deep dump pin for
// tied trees). It reads no PatternID, so it is the same on every shard,
// and a subtree lives wholly on the shard owning its root: per-shard
// TopTrees lists merge into exactly a single index's top-k. Paths of equal
// pattern content have equal length, so tied patterns' edge lists pair up.
func CompareTrees(pa *core.PatternTable, a RankedTree, pb *core.PatternTable, b RankedTree) int {
	if c := a.Pattern.CompareContent(pa, b.Pattern, pb); c != 0 {
		return c
	}
	if c := compareLE(uint32(a.Tree.Root), uint32(b.Tree.Root)); c != 0 {
		return c
	}
	for i, p := range a.Tree.Paths {
		q := b.Tree.Paths[i]
		for j, e := range p.Edges {
			if c := compareLE(uint32(e), uint32(q.Edges[j])); c != 0 {
				return c
			}
		}
	}
	return 0
}

// compareLE orders x and y as their little-endian bytes compare.
func compareLE(x, y uint32) int {
	return cmp.Compare(bits.ReverseBytes32(x), bits.ReverseBytes32(y))
}
