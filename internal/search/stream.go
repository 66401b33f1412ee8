package search

import (
	"math"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// This file holds the streaming executor's moving parts — the one way
// enumerate runs. Streaming changes when work happens and how much of it
// is skipped, never what survives into the top-k: stream_test.go compares
// a bounded run against a run whose heap never fills (K larger than the
// answer set, so nothing is pruned) and against the baseline. The parts:
//
//	lazy enumerate→aggregate  Each enumeration unit (a tree-pattern
//	    combination in PATTERNENUM, a root expansion in LINEARENUM-TOPK)
//	    is scored and offered into a per-worker heap the moment it is
//	    produced, instead of the walk materializing per-(pattern, root)
//	    path lists through allocating fetches. Per-worker scratch buffers
//	    (aggScratch, leScratch) make the steady state allocation-free.
//
//	top-k bound pushdown  PATTERNENUM keeps a shard-local bounded heap
//	    (reset at every shard boundary, see core.TopK.Reset) and, once it
//	    holds K items, bounds each leaf combination's best possible
//	    aggregate from the per-(word, pattern) posting envelopes
//	    (index.PatternBounds) before aggregating it. A combination whose
//	    bound cannot displace the shard-local k-th score is pruned without
//	    fetching a single path. Soundness: the pruned pattern scores
//	    strictly below K already-retained patterns from the same shard, so
//	    it cannot be in the global top-k under the (score desc, key asc)
//	    total order; the retained set of a TopK is insertion-order
//	    independent, so dropping it never changes the answer. Because the
//	    heap is shard-local, the pruning decisions — and therefore every
//	    QueryStats counter — are identical in serial and parallel runs.
//	    Pruning is disabled under CollectRootAggs: the shard scatter must
//	    surface every pattern because a locally dominated pattern can win
//	    globally once partials from other shards merge in.
//
//	predicate pushdown  LINEARENUM-TOPK evaluates the keyword predicate
//	    (does this root reach wi at all?) from the run table before
//	    fetching anything, and pulls each keyword's paths in one root-first
//	    arena walk instead of one binary-searched fetch per pattern.
//	    LINEARENUM gets no score pruning: its per-root partials are lower
//	    bounds of the final pattern aggregates, so no cut mid-type is
//	    sound.
//
//	cancellation pushdown  productPaths polls the shard's pollCancel once
//	    per tuple, so a canceled query aborts inside a combinatorial
//	    product instead of waiting for the next root or pattern boundary.

// aggScratch is the per-worker buffer set of the PATTERNENUM walk: the per-keyword path-list headers and the product's tuple buffers.
// One instance per worker slot; never shared across goroutines.
type aggScratch struct {
	lists [][]pathTerm
	paths []core.Path
	terms []core.ScoreTerms
}

// listsFor returns the per-keyword list headers, (re)allocating only when
// the keyword count changes.
func (sc *aggScratch) listsFor(m int) [][]pathTerm {
	if len(sc.lists) != m {
		sc.lists = make([][]pathTerm, m)
	}
	return sc.lists
}

// tuple returns the product's path/term buffers, m wide.
func (sc *aggScratch) tuple(m int) ([]core.Path, []core.ScoreTerms) {
	if cap(sc.paths) < m {
		sc.paths = make([]core.Path, m)
		sc.terms = make([]core.ScoreTerms, m)
	}
	return sc.paths[:m], sc.terms[:m]
}

// leScratch is the per-worker buffer set of the LINEARENUM root
// expansion: per-keyword pattern lists, path segments, and one pathTerm
// arena per keyword that a single index.PathsAt walk fills. Segment slices
// alias the arena, which is pre-sized to the root's exact path count
// (NumPathsAt) so appends never reallocate under them.
type leScratch struct {
	pats   [][]core.PatternID
	segs   [][][]pathTerm
	arena  [][]pathTerm
	choice []core.PatternID
	chosen [][]pathTerm
	agg    aggScratch // tuple buffers for productPaths
}

// fetch loads root r's per-keyword pattern lists and path segments in one
// root-first walk per keyword. It returns (nil, nil) as soon as any
// keyword has no path at r — the predicate is read off the run table
// before any entry is materialized, so non-candidate roots cost m counter
// lookups and nothing else. Iteration is in (pattern, path) posting order,
// the same order per-pattern PathsRF fetches produce, so downstream folds
// see the sequences the re-scoring pass (aggregateSelected) sees.
func (sc *leScratch) fetch(ix *index.Index, words []text.WordID, r kg.NodeID) ([][]core.PatternID, [][][]pathTerm) {
	m := len(words)
	if len(sc.pats) < m {
		sc.pats = make([][]core.PatternID, m)
		sc.segs = make([][][]pathTerm, m)
		sc.arena = make([][]pathTerm, m)
		sc.choice = make([]core.PatternID, m)
		sc.chosen = make([][]pathTerm, m)
	}
	for i, w := range words {
		n := ix.NumPathsAt(w, r)
		if n == 0 {
			return nil, nil
		}
		if cap(sc.arena[i]) < n {
			sc.arena[i] = make([]pathTerm, 0, n)
		}
		arena := sc.arena[i][:0]
		pats := sc.pats[i][:0]
		segs := sc.segs[i][:0]
		segStart := 0
		var cur core.PatternID
		ix.PathsAt(w, r, func(e *index.Entry) {
			if len(arena) > segStart && e.Pattern != cur {
				segs = append(segs, arena[segStart:len(arena):len(arena)])
				pats = append(pats, cur)
				segStart = len(arena)
			}
			cur = e.Pattern
			arena = append(arena, pathTerm{path: ix.Path(w, e), terms: e.Terms})
		})
		segs = append(segs, arena[segStart:len(arena):len(arena)])
		pats = append(pats, cur)
		sc.arena[i], sc.pats[i], sc.segs[i] = arena, pats, segs
	}
	return sc.pats[:m], sc.segs[:m]
}

// peLeafUB bounds the best aggregate score any tree pattern assembled from
// the given per-keyword posting envelopes can reach over nRoots candidate
// roots. Per keyword the envelope bounds every path's score terms and the
// per-root run length; summing the term intervals bounds any subtree's
// score via Scorer.TreeUB, and nRoots·Π MaxRun bounds the subtree count.
// The bound dispatches on the aggregation function: Count is bounded by
// the subtree count, Max and Avg by the best single subtree, Sum by their
// product. Always an over-approximation (possibly +Inf), never under.
func peLeafUB(bounds []index.PatternBounds, nRoots int, o Options) float64 {
	var lenLo, lenHi, prLo, prHi, simLo, simHi float64
	trees := float64(nRoots)
	for i := range bounds {
		b := &bounds[i]
		lenLo += float64(b.MinLen)
		lenHi += float64(b.MaxLen)
		prLo += b.MinPR
		prHi += b.MaxPR
		simLo += b.MinSim
		simHi += b.MaxSim
		trees *= float64(b.MaxRun)
	}
	tree := o.Scorer.TreeUB(lenLo, lenHi, prLo, prHi, simLo, simHi)
	switch o.Agg {
	case core.AggCount:
		return trees
	case core.AggMax, core.AggAvg:
		return tree
	default: // AggSum; unknown Aggs score 0, which trees*tree >= 0 covers
		return trees * tree
	}
}

// rootTreeUB bounds the best single-subtree score root r can produce, for
// TopTrees' per-root pruning, from pattern metadata alone (no path is
// fetched). It also returns the root's exact subtree count — the number of
// product tuples enumeration would have visited — so a pruned root can
// credit TreesFound as if it had been expanded. ok is false when any
// pattern lacks bounds (never prune what cannot be bounded).
func rootTreeUB(ix *index.Index, words []text.WordID, r kg.NodeID, o Options) (ub float64, tuples int64, ok bool) {
	var lenLo, lenHi, prLo, prHi, simLo, simHi float64
	prod := 1.0
	for _, w := range words {
		n := ix.NumPathsAt(w, r)
		if n == 0 {
			return 0, 0, false // not a candidate root; caller handles it
		}
		prod *= float64(n)
		first := true
		var kb index.PatternBounds
		for _, p := range ix.PatternsAt(w, r) {
			b, bok := ix.PatternBounds(w, p)
			if !bok {
				return 0, 0, false
			}
			if first {
				kb = b
				first = false
				continue
			}
			if b.MinLen < kb.MinLen {
				kb.MinLen = b.MinLen
			}
			if b.MaxLen > kb.MaxLen {
				kb.MaxLen = b.MaxLen
			}
			kb.MinPR = math.Min(kb.MinPR, b.MinPR)
			kb.MaxPR = math.Max(kb.MaxPR, b.MaxPR)
			kb.MinSim = math.Min(kb.MinSim, b.MinSim)
			kb.MaxSim = math.Max(kb.MaxSim, b.MaxSim)
		}
		lenLo += float64(kb.MinLen)
		lenHi += float64(kb.MaxLen)
		prLo += kb.MinPR
		prHi += kb.MaxPR
		simLo += kb.MinSim
		simHi += kb.MaxSim
	}
	if prod >= math.MaxInt64 {
		tuples = math.MaxInt64
	} else {
		tuples = int64(prod)
	}
	return o.Scorer.TreeUB(lenLo, lenHi, prLo, prHi, simLo, simHi), tuples, true
}
