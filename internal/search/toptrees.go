package search

import (
	"encoding/binary"
	"strings"
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
// root-first index and keeps the top k.
func TopTrees(ix *index.Index, query string, k int, opts Options) ([]RankedTree, QueryStats) {
	start := time.Now()
	o := opts.withDefaults()
	words, surfaces := ResolveQuery(ix, query)
	stats := QueryStats{Surfaces: surfaces, Words: words}
	top := core.NewTopK[RankedTree](k)
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
	pt := ix.PatternTable()
	sc := &leScratch{}
	for _, r := range candidates {
		if pruneRoots && top.Len() >= k {
			if ub, tuples, ok := rootTreeUB(ix, words, r, o); ok && !top.WouldAccept(ub) {
				stats.BoundPruned++
				stats.TreesFound += tuples
				continue
			}
		}
		if !sc.fetch(ix, words, r, nil) {
			continue // some keyword has no path at r
		}
		for ok := sc.firstCombo(); ok; ok = sc.nextCombo() {
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
				top.OfferFunc(score, func() string { return treeKey(pt, tp, st) }, RankedTree{Tree: st, Pattern: tp, Score: score})
			}
		}
	}
	stats.Elapsed = time.Since(start)
	return top.Results(), stats
}

// treeKey builds a deterministic tie-break key for an individual subtree:
// pattern content, then root, then the concrete edge IDs of each path.
func treeKey(pt *core.PatternTable, tp core.TreePattern, st core.Subtree) string {
	var sb strings.Builder
	sb.WriteString(tp.ContentKey(pt))
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(st.Root))
	sb.Write(buf[:])
	for _, p := range st.Paths {
		for _, e := range p.Edges {
			binary.LittleEndian.PutUint32(buf[:], uint32(e))
			sb.Write(buf[:])
		}
		if p.EdgeEnd {
			sb.WriteByte(1)
		} else {
			sb.WriteByte(0)
		}
	}
	return sb.String()
}

// TreeMergeKey is the deterministic ranking key of an individual subtree,
// derived from pattern content, root and concrete edges — never from
// interned PatternIDs. Shard gathers use it to merge per-shard TopTrees
// results into a global top-k with exactly the tie-breaks a single engine
// would apply (tree ranking is exact under sharding: an individual subtree
// lives wholly on the shard owning its root).
func TreeMergeKey(ix *index.Index, rt RankedTree) string {
	return treeKey(ix.PatternTable(), rt.Pattern, rt.Tree)
}

// wordIDsOf is a small helper for tests needing raw resolution.
func wordIDsOf(ix *index.Index, q string) []text.WordID {
	ids, _ := ResolveQuery(ix, q)
	return ids
}
