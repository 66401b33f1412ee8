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
	res, _ := Execute(context.Background(), ix, query, AlgoPE, opts)
	return res
}

// peType is the per-root-type precomputation of Algorithm 2 line 3:
// PatternsC(wi) with, per pattern, its resolved posting group and cached
// root list, plus the keyword enumeration order (selective first, so empty
// prefixes prune the combination tree as early as possible; choice[] stays
// indexed by the original keyword position, so the output is unchanged).
// bounds carries the per-pattern posting envelopes the top-k bound
// pushdown reads; it is only populated when pruning is enabled.
type peType struct {
	pats   [][]core.PatternID
	groups [][]index.Group
	roots  [][][]kg.NodeID
	bounds [][]index.PatternBounds
	order  []int
}

// peShard is one unit of PATTERNENUM's enumeration cut: the subtree of
// combinations under pattern choice j of type t's most selective keyword.
type peShard struct{ t, j int }

// peTables is the serial prelude's output — everything the combination
// walk reads but never writes.
type peTables struct {
	types  []peType
	shards []peShard
}

// pePrelude resolves the per-type pattern groups and root lists (one
// group search per (word, pattern) for the whole query) and cuts the
// enumeration into shards. One shard is the subtree of combinations under
// one choice of the most selective keyword's pattern — disjoint by
// construction, and fine-grained enough to balance a skewed type
// distribution across workers.
func pePrelude(ix *index.Index, prep *prepared, pruneOK bool) *peTables {
	words := prep.words
	m := len(words)
	tb := &peTables{types: make([]peType, len(prep.rootTypes))}
	for ti, c := range prep.rootTypes {
		tt := &tb.types[ti]
		tt.pats = make([][]core.PatternID, m)
		tt.groups = make([][]index.Group, m)
		tt.roots = make([][][]kg.NodeID, m)
		if pruneOK {
			tt.bounds = make([][]index.PatternBounds, m)
		}
		for i, w := range words {
			tt.pats[i] = ix.PatternsOfType(w, c)
			tt.groups[i] = make([]index.Group, len(tt.pats[i]))
			tt.roots[i] = make([][]kg.NodeID, len(tt.pats[i]))
			if pruneOK {
				tt.bounds[i] = make([]index.PatternBounds, len(tt.pats[i]))
			}
			for j, p := range tt.pats[i] {
				grp, _ := ix.Group(w, p) // p came from w's group table
				tt.groups[i][j] = grp
				tt.roots[i][j] = grp.Roots()
				if pruneOK {
					tt.bounds[i][j] = grp.Bounds()
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
// the serial results. ws holds one accumulator per worker slot, which the
// caller folds in the aggregate stage.
//
// Each worker scores into a shard-local bounded heap and, once that heap
// holds K patterns, prunes leaf combinations whose posting-envelope bound
// (peLeafUB) cannot displace the shard-local k-th score — before any path
// is fetched. stream.go argues soundness and determinism; CollectRootAggs
// disables the pruning (the shard scatter must surface every pattern).
// Pruning applies only at leaves: interior prefixes keep the
// empty-intersection pruning, so EmptyChecked counts exactly the
// combinations an unpruned walk counts.
func peEnumerate(ctx context.Context, ix *index.Index, prep *prepared, o Options, ws []workerState[RankedPattern]) error {
	m := len(prep.words)
	pruneOK := !o.CollectRootAggs
	tb := pePrelude(ix, prep, pruneOK)
	walkers := make([]peWalker, len(ws))
	return runShards(ctx, len(ws), len(tb.shards), func(worker, si int) {
		w := &walkers[worker]
		if w.choice == nil {
			*w = peWalker{
				g: ix.Graph(), pt: ix.PatternTable(), o: &o, pruneOK: pruneOK,
				out: &ws[worker], st: &ws[worker].stats, sink: ws[worker].top, choice: make([]core.PatternID, m),
				groups: make([]index.Group, m), bounds: make([]index.PatternBounds, m), inter: make([][]kg.NodeID, m),
			}
			if pruneOK {
				// Score into a shard-local heap (reset per shard, backing
				// array reused) so the pruning bound depends only on the
				// shard's own enumeration prefix — never on which worker
				// ran the preceding shards — keeping serial and parallel
				// runs, and their counters, identical.
				w.sink = core.NewTopK[RankedPattern](o.K)
			}
		}
		sh := tb.shards[si]
		w.tt, w.pc = &tb.types[sh.t], pollCancel{ctx: ctx}
		if pruneOK {
			w.sink.Reset()
		}
		kw := w.tt.order[0]
		if r0 := w.tt.roots[kw][sh.j]; len(r0) == 0 {
			w.st.EmptyChecked++
		} else {
			w.choose(kw, sh.j)
			w.walk(1, r0)
		}
		if pruneOK {
			ws[worker].top.Merge(w.sink)
		}
	})
}

// peWalker is one worker's state for the combination walk of Algorithm 2
// lines 4-8: the current combination (choice, with each chosen pattern's
// group and envelope), one root-intersection buffer per depth, and the
// aggregation scratch — allocated once per worker, so a shard, a
// combination and a (pattern, root) allocate nothing.
type peWalker struct {
	g       *kg.Graph
	pt      *core.PatternTable
	o       *Options
	pruneOK bool
	out     *workerState[RankedPattern]
	st      *QueryStats
	sink    *core.TopK[RankedPattern]
	tt      *peType // the shard's root type
	pc      pollCancel
	choice  []core.PatternID
	groups  []index.Group
	bounds  []index.PatternBounds
	inter   [][]kg.NodeID
	agg     aggScratch
}

// choose fixes keyword kw's pattern to its j-th.
func (w *peWalker) choose(kw, j int) {
	w.choice[kw] = w.tt.pats[kw][j]
	w.groups[kw] = w.tt.groups[kw][j]
	if w.pruneOK {
		w.bounds[kw] = w.tt.bounds[kw][j]
	}
}

// walk extends the combination at depth i, whose prefix has the nonempty
// root intersection r. The root intersection of line 5 is computed
// incrementally along the prefix, so a prefix with an empty intersection
// prunes its whole subtree of combinations at once (the wasted
// set-intersections on empty patterns are PATTERNENUM's worst case,
// Section 4.1; the pruning does not change the output).
func (w *peWalker) walk(i int, r []kg.NodeID) {
	if i == len(w.choice) {
		w.leaf(r)
		return
	}
	kw := w.tt.order[i]
	for j := range w.tt.pats[kw] {
		if w.pc.hit() {
			return
		}
		w.inter[i] = intersectSorted(w.inter[i], r, w.tt.roots[kw][j])
		if len(w.inter[i]) == 0 {
			w.st.EmptyChecked++
			continue
		}
		w.choose(kw, j)
		w.walk(i+1, w.inter[i])
	}
}

// leaf scores one complete combination over its root intersection r.
func (w *peWalker) leaf(r []kg.NodeID) {
	// Top-k bound pushdown: bound the combination's best possible
	// aggregate from the posting envelopes before paying for the
	// path-product aggregation.
	if w.pruneOK && w.sink.Len() >= w.o.K && !w.sink.WouldAccept(peLeafUB(w.bounds, len(r), w.o)) {
		w.st.BoundPruned++
		return
	}
	agg, rootAggs := aggregatePattern(w.g, w.groups, r, w.o, &w.pc, &w.agg)
	if w.pc.hit() {
		return // partial aggregate; the query is aborting
	}
	if agg.Count == 0 {
		w.st.EmptyChecked++ // all tuples filtered out (RequireTreeShape)
		return
	}
	w.st.PatternsFound++
	w.st.TreesFound += int64(agg.Count)
	offerPattern(w.out, w.sink, w.pt, w.o, w.choice, agg, rootAggs)
}

// offerPattern hands a scored tree pattern to top or, if nil, to ws's list.
// paths is walk-owned scratch: it is copied only for a kept pattern, and
// the content key built only when the score can enter the queue.
func offerPattern(ws *workerState[RankedPattern], top *core.TopK[RankedPattern], pt *core.PatternTable, o *Options, paths []core.PatternID, agg core.PatternScore, rootAggs []RootAgg) {
	score := agg.Value(o.Agg)
	if top == nil {
		lo := len(ws.paths)
		ws.paths = append(ws.paths, paths...)
		tp := core.TreePattern{Paths: ws.paths[lo:len(ws.paths):len(ws.paths)]}
		ws.all = append(ws.all, RankedPattern{Pattern: tp, Agg: agg, Score: score, RootAggs: rootAggs})
		return
	}
	if !top.WouldAccept(score) {
		return
	}
	tp := core.TreePattern{Paths: append([]core.PatternID(nil), paths...)}
	top.OfferFunc(score, func() string { return tp.ContentKey(pt) },
		RankedPattern{Pattern: tp, Agg: agg, Score: score, RootAggs: rootAggs})
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
