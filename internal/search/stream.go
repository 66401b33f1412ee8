package search

import (
	"math"
	"slices"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// This file holds the streaming executor's moving parts — the one way
// enumerate runs. Streaming changes when work happens and how much of it
// is skipped, never what survives into the top-k: stream_test.go compares
// a bounded run against a run whose heap never fills (K larger than the
// answer set, so nothing is pruned) and against the baseline. Inside the
// stage the rule is the one between stages: no work whose result is thrown
// away, and allocation, locking and searching per query or per worker,
// never per enumeration unit (alloc_test.go holds the budget). The parts:
//
//	lazy enumerate→aggregate  Each enumeration unit (a tree-pattern
//	    combination in PATTERNENUM, a root expansion in LINEARENUM-TOPK)
//	    is scored and offered into a per-worker heap the moment it is
//	    produced. Scoring reads score terms only: posting runs are borrowed
//	    views (index.PathSet) whose terms are copied from the columnar
//	    arrays into per-worker scratch, and one kernel (tupleWalk) folds
//	    every product. Paths are built only for what consumes them — the
//	    final k patterns' tables, retained TopTrees, RequireTreeShape.
//
//	ranking by score, then content  A pattern gets its own copy of the
//	    PatternID vector only when its score reaches the queue's current
//	    k-th score (offerPattern, core.TopK.WouldAccept); what a full queue
//	    rejects on score alone costs one comparison. Equal scores are
//	    ordered by comparing the patterns' contents in the table
//	    (core.TreePattern.CompareContent): no key is built.
//
//	per-worker bookkeeping  LINEARENUM's TreeDict (leDict) hashes the
//	    PatternID vector itself, is emptied between root types and draws
//	    entries from a slab. PATTERNENUM resolves each (word, pattern)
//	    group once per query (peTables), follows it with a monotone run
//	    cursor along the ascending roots, and intersects root lists by
//	    galloping into per-depth scratch.
//
//	top-k bound pushdown  PATTERNENUM keeps a shard-local bounded heap
//	    (reset at every shard boundary, see core.TopK.Reset) and, once it
//	    holds K items, bounds each leaf combination's best possible
//	    aggregate from the per-(word, pattern) posting envelopes
//	    (index.PatternBounds) before aggregating it. A combination whose
//	    bound cannot displace the shard-local k-th score is pruned without
//	    fetching a single path. Soundness: the pruned pattern scores
//	    strictly below K already-retained patterns from the same shard, so
//	    it cannot be in the global top-k under the (score desc, content
//	    asc) total order; the retained set of a TopK is insertion-order
//	    independent, so dropping it never changes the answer. Because the
//	    heap is shard-local, the pruning decisions — and therefore every
//	    QueryStats counter — are identical in serial and parallel runs.
//	    Pruning is disabled under CollectRootAggs: the shard scatter must
//	    surface every pattern because a locally dominated pattern can win
//	    globally once partials from other shards merge in.
//
//	predicate pushdown  LINEARENUM-TOPK evaluates the keyword predicate
//	    (does this root reach wi at all?) from the run table before
//	    reading any posting, and pulls each keyword's terms in one
//	    root-first arena walk instead of one binary-searched fetch per
//	    pattern. LINEARENUM gets no score pruning: its per-root partials
//	    are lower bounds of the final pattern aggregates, so no cut
//	    mid-type is sound.
//
//	cancellation pushdown  tupleWalk.fold polls the shard's pollCancel
//	    once per tuple, so a canceled query aborts inside a combinatorial
//	    product instead of waiting for the next root or pattern boundary.

// tupleWalk is the one product kernel: an odometer over per-keyword
// ScoreTerms lists visiting their cartesian product in lexicographic order
// (keyword 0 slowest, Algorithm 2 line 7 / Algorithm 3 line 9) while
// carrying the Len/PR/Sim prefix sums down the keyword order:
// sum[i+1] = sum[i] + lists[i][idx[i]] from zero — the additions, in the
// order, core.Scorer.Tree performs on the tuple, so score returns Tree's
// bits, but a step of the last keyword costs three additions, not 3m, and
// no tuple is materialized. Buffers are reused across walks.
type tupleWalk struct {
	lists  [][]core.ScoreTerms
	idx    []int // the current tuple: idx[i] indexes lists[i]
	sumLen []int
	sumPR  []float64
	sumSim []float64
}

// start positions the walk on the product's first tuple; false when the
// product is empty.
func (tw *tupleWalk) start(lists [][]core.ScoreTerms) bool {
	m := len(lists)
	if cap(tw.idx) < m {
		tw.idx, tw.sumLen = make([]int, m), make([]int, m+1)
		tw.sumPR, tw.sumSim = make([]float64, m+1), make([]float64, m+1)
	}
	tw.lists, tw.idx = lists, tw.idx[:m]
	tw.sumLen[0], tw.sumPR[0], tw.sumSim[0] = 0, 0, 0
	for i, l := range lists {
		if len(l) == 0 {
			return false
		}
		tw.idx[i] = 0
	}
	tw.carry(0)
	return true
}

// carry recomputes the prefix sums from keyword i down.
func (tw *tupleWalk) carry(i int) {
	for ; i < len(tw.idx); i++ {
		t := &tw.lists[i][tw.idx[i]]
		tw.sumLen[i+1] = tw.sumLen[i] + t.Len
		tw.sumPR[i+1] = tw.sumPR[i] + t.PR
		tw.sumSim[i+1] = tw.sumSim[i] + t.Sim
	}
}

// next advances to the next tuple; false after the last.
func (tw *tupleWalk) next() bool {
	for i := len(tw.idx) - 1; i >= 0; i-- {
		if tw.idx[i]++; tw.idx[i] < len(tw.lists[i]) {
			tw.carry(i)
			return true
		}
		tw.idx[i] = 0
	}
	return false
}

// score is the current tuple's subtree score: s.Tree of its terms.
func (tw *tupleWalk) score(s *core.Scorer) float64 {
	m := len(tw.idx)
	return s.FromSums(tw.sumLen[m], tw.sumPR[m], tw.sumSim[m])
}

// fold scores every tuple of lists' product, in order, into one partial
// aggregate. keep, when non-nil, filters tuples by index vector. pc is
// polled once per tuple; a hit returns the partial fold.
func (tw *tupleWalk) fold(s *core.Scorer, lists [][]core.ScoreTerms, pc *pollCancel, keep func(idx []int) bool) core.PatternScore {
	var local core.PatternScore
	for ok := tw.start(lists); ok; ok = tw.next() {
		if pc.hit() {
			break
		}
		if keep == nil || keep(tw.idx) {
			local.Add(tw.score(s))
		}
	}
	return local
}

// aggScratch is the per-worker buffer set around the kernel: for the
// pattern combination being scored at one root, each keyword's posting run
// (sets) and its score terms (lists). PATTERNENUM refills the lists' own
// backing arrays per root through run cursors; LINEARENUM points them at
// segments of its root arena — so an instance serves one algorithm, never
// both, and one worker, never two.
type aggScratch struct {
	tw      tupleWalk
	sets    []index.PathSet
	lists   [][]core.ScoreTerms
	cursors []index.RunCursor
	paths   []core.Path // RequireTreeShape's tuple buffer
}

// size readies the buffers for m keywords.
func (sc *aggScratch) size(m int) {
	if cap(sc.sets) < m {
		sc.sets, sc.lists = make([]index.PathSet, m), make([][]core.ScoreTerms, m)
		sc.cursors, sc.paths = make([]index.RunCursor, m), make([]core.Path, m)
	}
	sc.sets, sc.lists, sc.cursors, sc.paths = sc.sets[:m], sc.lists[:m], sc.cursors[:m], sc.paths[:m]
}

// open points the scratch at a pattern's per-keyword posting groups.
func (sc *aggScratch) open(groups []index.Group) {
	sc.size(len(groups))
	for i, grp := range groups {
		sc.cursors[i] = grp.Cursor()
	}
}

// seek loads root r's run and terms from every opened group; false when
// some group has no run at r. Cheap while r ascends between calls.
func (sc *aggScratch) seek(r kg.NodeID) bool {
	for i := range sc.cursors {
		ps, ok := sc.cursors[i].Seek(r)
		if !ok {
			return false
		}
		sc.sets[i] = ps
		sc.lists[i] = ps.AppendTerms(sc.lists[i][:0])
	}
	return true
}

// foldRoot folds the product of the chosen runs at root r into that root's
// partial aggregate, dropping re-converging tuples under RequireTreeShape.
func (sc *aggScratch) foldRoot(g *kg.Graph, r kg.NodeID, o *Options, pc *pollCancel) core.PatternScore {
	var keep func(idx []int) bool
	if o.RequireTreeShape {
		keep = func(idx []int) bool { return sc.treeShaped(g, r, idx) }
	}
	return sc.tw.fold(o.Scorer, sc.lists, pc, keep)
}

// treeShaped is the RequireTreeShape filter on tuple idx of the chosen
// runs; it builds the tuple's paths in the scratch buffer.
func (sc *aggScratch) treeShaped(g *kg.Graph, r kg.NodeID, idx []int) bool {
	for i, k := range idx {
		sc.paths[i] = sc.sets[i].Path(k)
	}
	return core.Subtree{Root: r, Paths: sc.paths}.IsTreeShaped(g)
}

// tree copies tuple idx of the chosen runs out as a Subtree to keep.
func (sc *aggScratch) tree(r kg.NodeID, idx []int) core.Subtree {
	st := core.Subtree{Root: r, Paths: make([]core.Path, len(idx)), Terms: make([]core.ScoreTerms, len(idx))}
	for i, k := range idx {
		st.Paths[i] = sc.sets[i].Path(k)
		st.Terms[i] = sc.lists[i][k]
	}
	return st
}

// dictEntry is one tree pattern accumulating in TreeDict.
type dictEntry struct {
	tp       core.TreePattern
	agg      core.PatternScore
	rootAggs []RootAgg // per-root partials, kept under CollectRootAggs
}

// leDict is LINEARENUM's aggregation dictionary (TreeDict), tree pattern →
// running aggregate: an open-addressing table over the PatternID vectors
// themselves, so a lookup hashes m integers and builds no key. Entries
// come from a slab with their vectors packed in one arena; slots carry a
// generation stamp, so reset is one increment and keeps every buffer for
// the next root type. Entries live until reset: what outlives it (a
// retained RankedPattern) copies the vector out.
type leDict struct {
	slots   []uint64 // gen<<32 | position in entries; other gens are empty
	gen     uint32
	entries []dictEntry      // insertion order
	paths   []core.PatternID // backing store of entries' tp.Paths
}

// reset empties the dictionary, retaining capacity.
func (d *leDict) reset() {
	clear(d.entries) // drop rootAggs references
	d.entries, d.paths = d.entries[:0], d.paths[:0]
	if d.gen++; d.gen == 0 { // stamp wrapped: old stamps could alias
		clear(d.slots)
		d.gen = 1
	}
}

// probe returns the slot where paths lives or, with a nil entry, belongs.
func (d *leDict) probe(paths []core.PatternID) (int, *dictEntry) {
	var h uint64
	for _, p := range paths {
		h = (h ^ uint64(uint32(p))) * 0x9E3779B97F4A7C15
	}
	mask := len(d.slots) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		s := d.slots[i]
		if uint32(s>>32) != d.gen {
			return i, nil
		}
		if de := &d.entries[uint32(s)]; slices.Equal(de.tp.Paths, paths) {
			return i, de
		}
	}
}

// find returns the entry of the pattern with the given paths, or nil. The
// pointer is valid until the next entry call.
func (d *leDict) find(paths []core.PatternID) *dictEntry {
	if len(d.slots) == 0 {
		return nil
	}
	_, de := d.probe(paths)
	return de
}

// entry is find, registering the pattern (with a zero aggregate) if new.
func (d *leDict) entry(paths []core.PatternID) *dictEntry {
	if 2*len(d.entries) >= len(d.slots) { // keep the load factor under 1/2
		d.slots, d.gen = make([]uint64, max(64, 2*len(d.slots))), 1
		for pos := range d.entries {
			i, _ := d.probe(d.entries[pos].tp.Paths)
			d.slots[i] = 1<<32 | uint64(pos)
		}
	}
	i, de := d.probe(paths)
	if de != nil {
		return de
	}
	lo := len(d.paths)
	d.paths = append(d.paths, paths...)
	d.slots[i] = uint64(d.gen)<<32 | uint64(len(d.entries))
	d.entries = append(d.entries, dictEntry{tp: core.TreePattern{Paths: d.paths[lo:len(d.paths):len(d.paths)]}})
	return &d.entries[len(d.entries)-1]
}

// leScratch is the per-worker state of the LINEARENUM root expansion: the
// fetched root's posting runs per keyword (one per pattern), their score
// terms in one arena (sized before it is filled, so the segments aliasing
// it never move), the combination odometer over the runs, and the
// dictionaries the expansion folds into.
type leScratch struct {
	runs   [][]index.PathSet
	segs   [][][]core.ScoreTerms
	arena  []core.ScoreTerms
	combo  []int
	choice []core.PatternID
	agg    aggScratch // the chosen combination's runs and term lists
	dict   leDict     // TreeDict of the root type being expanded
	sel    leDict     // exact re-scores of a sampled type's selection
}

// fetch loads root r's per-keyword runs and their terms. It returns false
// as soon as a keyword has no run at r — the predicate is read off the run
// table before any posting is. only, when non-nil, keeps per keyword just
// the runs of the listed patterns (exact re-scoring expands nothing
// else). Runs are in pattern order and terms in posting order — the
// (pattern, path) order of the root-first view — so every fold over them
// sees the same sequences.
func (sc *leScratch) fetch(ix *index.Index, words []text.WordID, r kg.NodeID, only []map[core.PatternID]bool) bool {
	m := len(words)
	if cap(sc.runs) < m {
		sc.runs, sc.segs = make([][]index.PathSet, m), make([][][]core.ScoreTerms, m)
		sc.combo, sc.choice = make([]int, m), make([]core.PatternID, m)
	}
	sc.runs, sc.segs, sc.combo, sc.choice = sc.runs[:m], sc.segs[:m], sc.combo[:m], sc.choice[:m]
	sc.agg.size(m)
	n := 0
	for i, w := range words {
		runs := ix.RunsAt(sc.runs[i][:0], w, r)
		if only != nil {
			runs = slices.DeleteFunc(runs, func(ps index.PathSet) bool { return !only[i][ps.Pattern()] })
		}
		sc.runs[i] = runs
		if len(runs) == 0 {
			return false
		}
		for k := range runs {
			n += runs[k].Len()
		}
	}
	arena := slices.Grow(sc.arena[:0], n)
	for i, runs := range sc.runs {
		segs := sc.segs[i][:0]
		for k := range runs {
			lo := len(arena)
			arena = runs[k].AppendTerms(arena)
			segs = append(segs, arena[lo:len(arena):len(arena)])
		}
		sc.segs[i] = segs
	}
	sc.arena = arena
	return true
}

// pick makes run j of keyword i part of the current combination.
func (sc *leScratch) pick(i, j int) {
	sc.combo[i] = j
	sc.choice[i] = sc.runs[i][j].Pattern()
	sc.agg.sets[i] = sc.runs[i][j]
	sc.agg.lists[i] = sc.segs[i][j]
}

// firstCombo starts the walk over the fetched root's pattern combinations
// (the product of Patterns(wi, r), Algorithm 3 line 8), leaving the first
// in choice and agg. Always true (fetch guarantees a run per keyword), so
// loops read: for ok := sc.firstCombo(); ok; ok = sc.nextCombo().
func (sc *leScratch) firstCombo() bool {
	for i := range sc.runs {
		sc.pick(i, 0)
	}
	return true
}

// nextCombo advances to the next combination, keyword 0 slowest.
func (sc *leScratch) nextCombo() bool {
	for i := len(sc.runs) - 1; i >= 0; i-- {
		if j := sc.combo[i] + 1; j < len(sc.runs[i]) {
			sc.pick(i, j)
			return true
		}
		sc.pick(i, 0)
	}
	return false
}

// peLeafUB bounds the best aggregate score any tree pattern assembled from
// the given per-keyword posting envelopes can reach over nRoots candidate
// roots. Per keyword the envelope bounds every path's score terms and the
// per-root run length; summing the term intervals bounds any subtree's
// score via Scorer.TreeUB, and nRoots·Π MaxRun bounds the subtree count.
// The bound dispatches on the aggregation function: Count is bounded by
// the subtree count, Max and Avg by the best single subtree, Sum by their
// product; sumSlack lifts Sum and Avg over the float fold of the subtree
// scores. Always an over-approximation (possibly +Inf), never under.
func peLeafUB(bounds []index.PatternBounds, nRoots int, o *Options) float64 {
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
	case core.AggMax:
		return tree
	case core.AggAvg:
		return tree * sumSlack(trees)
	default: // AggSum; unknown Aggs score 0, which trees*tree >= 0 covers
		return trees * tree * sumSlack(trees)
	}
}

// sumSlack lifts a bound on the exact sum (or mean) of at most n
// non-negative terms over their float fold, which can exceed it: 15 folds
// of 2.5/3 give 12.500000000000002. The fold errs by at most
// γ = (n−1)u/(1−(n−1)u), u = 2⁻⁵³ (Higham, §4.2); 1 + 4(n+1)u also covers
// the bound's own roundings while (n−1)u ≤ 1/2, and +Inf past that.
func sumSlack(n float64) float64 {
	if n > 0x1p52 {
		return math.Inf(1)
	}
	return 1 + float64(4*(n+1)*0x1p-53) // float64(): never fused into an FMA
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
