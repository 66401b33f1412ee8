package search

import (
	"context"
	"sort"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
)

// PETopK runs PATTERNENUM (Algorithm 2): for each root type C it enumerates
// every combination of per-keyword path patterns rooted at C from the
// pattern-first index, checks non-emptiness by intersecting the root lists,
// and scores the non-empty tree patterns. Valid subtrees of a pattern are
// generated at one time, so no online aggregation dictionary is needed.
func PETopK(ix *index.Index, query string, opts Options) *Result {
	res, _ := PETopKCtx(context.Background(), ix, query, opts)
	return res
}

// PETopKCtx is PETopK with cancellation: a canceled or expired context
// stops the enumeration between shards and returns the context's error.
func PETopKCtx(ctx context.Context, ix *index.Index, query string, opts Options) (*Result, error) {
	return Execute(ctx, ix, query, AlgoPE, opts)
}

// peType is the per-root-type precomputation of Algorithm 2 line 3:
// PatternsC(wi) and the cached root list per pattern, plus the keyword
// enumeration order (selective first, so empty prefixes prune the
// combination tree as early as possible; choice[] stays indexed by the
// original keyword position, so the output is unchanged). bounds carries
// the per-pattern posting envelopes the top-k bound pushdown reads; it is
// only populated when pruning is enabled.
type peType struct {
	pats   [][]core.PatternID
	roots  [][][]kg.NodeID
	bounds [][]index.PatternBounds
	order  []int
}

// peShard is one unit of PATTERNENUM's enumeration cut: the subtree of
// combinations under pattern choice j of type t's most selective keyword.
type peShard struct{ t, j int }

// peTables is the serial prelude's output — everything the combination
// walk reads but never writes. It depends only on the retained prepare,
// the immutable index, and whether pruning is enabled, so a Prepared
// caches one per pruning mode and repeat executions skip the prelude.
type peTables struct {
	types  []peType
	shards []peShard
}

// pePrelude fetches the per-type pattern and root lists (cheap index
// lookups) and cuts the enumeration into shards. One shard is the
// subtree of combinations under one choice of the most selective
// keyword's pattern — disjoint by construction, and fine-grained enough
// to balance a skewed type distribution across workers.
func pePrelude(ix *index.Index, prep *prepared, pruneOK bool) *peTables {
	words := prep.words
	m := len(words)
	tb := &peTables{types: make([]peType, len(prep.rootTypes))}
	for ti, c := range prep.rootTypes {
		tt := &tb.types[ti]
		tt.pats = make([][]core.PatternID, m)
		tt.roots = make([][][]kg.NodeID, m)
		if pruneOK {
			tt.bounds = make([][]index.PatternBounds, m)
		}
		for i, w := range words {
			tt.pats[i] = ix.PatternsOfType(w, c)
			tt.roots[i] = make([][]kg.NodeID, len(tt.pats[i]))
			if pruneOK {
				tt.bounds[i] = make([]index.PatternBounds, len(tt.pats[i]))
			}
			for j, p := range tt.pats[i] {
				tt.roots[i][j] = ix.RootsOf(w, p)
				if pruneOK {
					tt.bounds[i][j], _ = ix.PatternBounds(w, p)
				}
			}
		}
		tt.order = make([]int, m)
		for i := range tt.order {
			tt.order[i] = i
		}
		sort.Slice(tt.order, func(a, b int) bool {
			return len(tt.pats[tt.order[a]]) < len(tt.pats[tt.order[b]])
		})
		for j := range tt.pats[tt.order[0]] {
			tb.shards = append(tb.shards, peShard{t: ti, j: j})
		}
	}
	return tb
}

// peEnumerate is PATTERNENUM's fused enumerate→aggregate walk. The
// enumeration is sharded by (root type, first path-pattern choice) across
// the worker pool configured by Options.Workers; every tree pattern is
// scored entirely inside one shard, so the parallel run returns exactly
// the serial results. The caller folds the returned per-worker
// accumulators in the aggregate stage.
//
// Each worker scores into a shard-local bounded heap and, once that heap
// holds K patterns, prunes leaf combinations whose posting-envelope bound
// (peLeafUB) cannot displace the shard-local k-th score — before any path
// is fetched. stream.go argues soundness and determinism; CollectRootAggs
// disables the pruning (the shard scatter must surface every pattern).
// Pruning applies only at leaves: interior prefixes keep the
// empty-intersection pruning, so EmptyChecked counts exactly the
// combinations an unpruned walk counts.
func peEnumerate(ctx context.Context, ix *index.Index, prep *prepared, o Options) ([]workerState[RankedPattern], error) {
	words := prep.words
	m := len(words)
	pt := ix.PatternTable()
	pruneOK := !o.CollectRootAggs
	tb := prep.peTables(ix, pruneOK)
	types, shards := tb.types, tb.shards

	// Lines 4-8 per shard: enumerate the tree-pattern product. The root
	// intersection of line 5 is computed incrementally along the
	// combination prefix, so a prefix with an empty intersection prunes
	// its whole subtree of combinations at once (the wasted
	// set-intersections on empty patterns are PATTERNENUM's worst case,
	// Section 4.1; the pruning does not change the output).
	workers := resolveWorkers(o.Workers)
	ws := newWorkerStates[RankedPattern](workers, o.K)
	scratches := make([]aggScratch, workers)
	var locals []*core.TopK[RankedPattern]
	if pruneOK {
		locals = make([]*core.TopK[RankedPattern], workers)
		for i := range locals {
			locals[i] = core.NewTopK[RankedPattern](o.K)
		}
	}
	err := runShards(ctx, workers, len(shards), func(worker, si int) {
		sh := shards[si]
		tt := &types[sh.t]
		st := &ws[worker].stats
		sink := ws[worker].top
		sc := &scratches[worker]
		if pruneOK {
			// Score into a fresh shard-local heap (backing array reused
			// across the worker's shards) so the pruning bound depends only
			// on this shard's own enumeration prefix — never on which
			// worker ran the preceding shards — keeping serial and parallel
			// runs, and their counters, identical.
			sink = locals[worker]
			sink.Reset()
		}
		pc := &pollCancel{ctx: ctx}
		w0 := tt.order[0]
		r0 := tt.roots[w0][sh.j]
		if len(r0) == 0 {
			st.EmptyChecked++
			return
		}
		choice := make([]core.PatternID, m)
		choice[w0] = tt.pats[w0][sh.j]
		var chosenB []index.PatternBounds
		if pruneOK {
			chosenB = make([]index.PatternBounds, m)
			chosenB[w0] = tt.bounds[w0][sh.j]
		}
		var rec func(i int, r []kg.NodeID)
		rec = func(i int, r []kg.NodeID) {
			if i == m {
				// Top-k bound pushdown: bound the combination's best
				// possible aggregate from the posting envelopes before
				// paying for the path-product aggregation.
				if pruneOK && sink.Len() >= o.K && !sink.WouldAccept(peLeafUB(chosenB, len(r), o)) {
					st.BoundPruned++
					return
				}
				tp := core.TreePattern{Paths: append([]core.PatternID(nil), choice...)}
				agg, n, rootAggs := aggregatePattern(ix, words, tp, r, o, pc, sc)
				if pc.hit() {
					return // partial aggregate; the query is aborting
				}
				if agg.Count == 0 {
					// All tuples filtered out (RequireTreeShape).
					st.EmptyChecked++
					return
				}
				st.PatternsFound++
				st.TreesFound += n
				sink.Offer(agg.Value(o.Agg), tp.ContentKey(pt),
					RankedPattern{Pattern: tp, Agg: agg, Score: agg.Value(o.Agg), RootAggs: rootAggs})
				return
			}
			w := tt.order[i]
			for j, p := range tt.pats[w] {
				if pc.hit() {
					return
				}
				next := intersectSorted([][]kg.NodeID{r, tt.roots[w][j]})
				if len(next) == 0 {
					st.EmptyChecked++
					continue
				}
				choice[w] = p
				if pruneOK {
					chosenB[w] = tt.bounds[w][j]
				}
				rec(i+1, next)
			}
		}
		rec(1, r0)
		if pruneOK {
			ws[worker].top.Merge(sink)
		}
	})
	return ws, err
}

// intersectTypes intersects sorted TypeID lists.
func intersectTypes(lists [][]kg.TypeID) []kg.TypeID {
	if len(lists) == 0 {
		return nil
	}
	out := lists[0]
	for _, l := range lists[1:] {
		var next []kg.TypeID
		i, j := 0, 0
		for i < len(out) && j < len(l) {
			switch {
			case out[i] == l[j]:
				next = append(next, out[i])
				i++
				j++
			case out[i] < l[j]:
				i++
			default:
				j++
			}
		}
		out = next
		if len(out) == 0 {
			return nil
		}
	}
	return out
}
