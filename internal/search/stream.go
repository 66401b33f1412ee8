package search

import (
	"math"
	"slices"
	"sync"

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
//	    arrays into per-worker scratch. Two kernels fold the products, one
//	    per access pattern. tupleWalk walks one pattern combination's
//	    product at a time (PATTERNENUM's (combination, root) pairs,
//	    materializeTrees, TopTrees). LINEARENUM's root walk
//	    (leScratch.walkRoot) folds a root's whole term product in one pass
//	    into a partial per pattern combination, which one pass in
//	    combination order merges into the TreeDict: the per-combination
//	    set-up is gone, and every partial keeps tupleWalk's bits. Paths are
//	    built only for what consumes them — the final k patterns' tables,
//	    retained TopTrees, RequireTreeShape.
//
//	ranking by score, then content  A pattern gets its own copy of the
//	    PatternID vector only when its score reaches the queue's current
//	    k-th score (offerPattern, core.TopK.WouldAccept); what a full queue
//	    rejects on score alone costs one comparison. Equal scores are
//	    ordered by comparing the patterns' contents in the table
//	    (core.TreePattern.CompareContent): no key is built.
//
//	per-worker bookkeeping  LINEARENUM's TreeDict (leDict) hashes the
//	    PatternID vector itself, is emptied between root types, draws
//	    entries from a slab and sizes its slot table for each root type.
//	    Its scratch (leScratch), the root walk's partials included, is
//	    pooled across queries and goes back released, holding no
//	    reference into an index, so a pooled scratch pins no replaced
//	    epoch; materializeTrees borrows its kernel scratch from a pool of
//	    its own and carves its subtrees from two slabs per pattern. PATTERNENUM resolves each (word,
//	    pattern) group once per query (peTables), follows it with a
//	    monotone run cursor along the ascending roots, and intersects root
//	    lists by galloping into per-depth scratch.
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
//	    pattern. Each keyword keeps a root cursor into its root list
//	    (index.Index.RunsAt, NumPathsAt): the roots of a type ascend, so
//	    finding the next one gallops from the last instead of a binary
//	    search per root, in prepare's frontier count and in the fetch.
//	    LINEARENUM gets no score pruning: its per-root partials are lower
//	    bounds of the final pattern aggregates, so no cut mid-type is
//	    sound.
//
//	cancellation pushdown  tupleWalk.fold polls the shard's pollCancel
//	    once per tuple and the root walk once per sweep of its last
//	    keyword, so a canceled query aborts inside a combinatorial
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
// (sets) and its score terms (lists). PATTERNENUM and materializeTrees
// refill the lists' own backing arrays per root through run cursors;
// TopTrees points them at segments of its root arena — so an instance
// serves one of them, never two, and one worker, never two.
type aggScratch struct {
	tw      tupleWalk
	sets    []index.PathSet
	lists   [][]core.ScoreTerms
	cursors []index.RunCursor
	paths   []core.Path // RequireTreeShape's tuple buffer
}

// aggScratchPool serves materializeTrees, apart from leScratchPool: its
// many short borrows would otherwise leave small scratches where
// LINEARENUM's grown ones should be.
var aggScratchPool = sync.Pool{New: func() any { return new(aggScratch) }}

// release zeroes every slot that can point into an index (a PathSet, a
// RunCursor, a Path), and the term lists, over their full capacity.
func (sc *aggScratch) release() {
	clear(sc.sets[:cap(sc.sets)])
	clear(sc.cursors[:cap(sc.cursors)])
	clear(sc.paths[:cap(sc.paths)])
	clear(sc.lists[:cap(sc.lists)])
	sc.tw.lists = nil
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
// generation stamp, so a slot of another generation reads as empty. The
// table in use is a power-of-two prefix of the slot array, leDictMinSlots
// at each reset and doubled as entries arrive: reset and growth within the
// array's capacity are each one stamp increment, and a root type's probes
// touch a table sized for that type, not for the largest type the
// (pooled) array ever held. Entries live until reset: what outlives it (a
// retained RankedPattern) copies the vector out.
type leDict struct {
	slots   []uint64 // gen<<32 | position in entries; other gens are empty
	gen     uint32
	entries []dictEntry      // insertion order
	paths   []core.PatternID // backing store of entries' tp.Paths
}

// leDictMinSlots is the slot table's size after a reset.
const leDictMinSlots = 64

// reset empties the dictionary, retaining capacity.
func (d *leDict) reset() {
	clear(d.entries) // drop rootAggs references
	d.entries, d.paths = d.entries[:0], d.paths[:0]
	d.slots = d.slots[:min(leDictMinSlots, cap(d.slots))]
	d.nextGen()
}

// nextGen empties every slot by moving to a new generation stamp.
func (d *leDict) nextGen() {
	if d.gen++; d.gen == 0 { // stamp wrapped: old stamps could alias
		clear(d.slots[:cap(d.slots)])
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
		if n := max(leDictMinSlots, 2*len(d.slots)); n <= cap(d.slots) {
			d.slots = d.slots[:n]
		} else {
			d.slots = make([]uint64, n)
		}
		d.nextGen()
		for pos := range d.entries {
			i, _ := d.probe(d.entries[pos].tp.Paths)
			d.slots[i] = uint64(d.gen)<<32 | uint64(pos)
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

// leScratch is the per-worker state of LINEARENUM's root expansion (and of
// TopTrees' root loop): per keyword, the root cursor into its root list,
// the fetched root's posting runs (one per pattern) and their score terms,
// run after run, in one arena (sized before it is filled, so the lists
// aliasing it never move) with each run's end; the root walk's state and
// the per-combination partials it folds into; the combination odometer;
// and the dictionaries the expansion merges into. Scratches outlive a
// query: they come from leScratchPool and go back released, holding
// buffers but no reference into an index or a result.
type leScratch struct {
	at     []int // per keyword: its root cursor (index.Index.RunsAt)
	runs   [][]index.PathSet
	terms  [][]core.ScoreTerms // per keyword: its runs' terms, in run order
	ends   [][]int             // per keyword: where each run's terms end
	arena  []core.ScoreTerms
	walk   []walkKey           // per keyword: the root walk's state
	locals []core.PatternScore // the root walk's partials, by combination slot
	combo  []int
	choice []core.PatternID
	agg    aggScratch // the chosen combination's runs and term lists (TopTrees)
	dict   leDict     // TreeDict of the root type being expanded
	sel    leDict     // exact re-scores of a sampled type's selection
}

// walkKey is one keyword's state in the root walk (leScratch.walkRoot): its
// position in the keyword's terms, the run holding it, the range it sweeps
// and the first run of that range, the run index's weight in a
// combination slot, and the slot offset and score-term sums of the
// keywords before it (the prefix tupleWalk.carry keeps).
type walkKey struct {
	pos, run, lo, hi, run0, stride int
	slot, sumLen                   int
	sumPR, sumSim                  float64
}

// leMaxSlots bounds the partials one root walk holds (24 B each): a root
// whose pattern combinations outnumber it is walked in chunks, with the
// leading keywords held to one run per chunk.
const leMaxSlots = 1 << 14

var leScratchPool = sync.Pool{New: func() any { return new(leScratch) }}

func getLEScratch() *leScratch { return leScratchPool.Get().(*leScratch) }

// putLEScratch releases sc and returns it to the pool.
func putLEScratch(sc *leScratch) {
	sc.release()
	leScratchPool.Put(sc)
}

// release zeroes every slot that can point into an index (a PathSet holds
// its word's index and root-first order, a RunCursor its group, a Path its
// edges) or into a result (rootAggs), over each buffer's full capacity:
// a pooled scratch must pin no epoch an update has since replaced. What
// stays is pointer-free (cursors, run ends, the walk's state, partials,
// score terms) or points into the scratch's own buffers (term lists).
// Past their lengths the run lists and the dictionaries' entries are
// already zero (fetch clears a run list's tail when it shrinks,
// leDict.reset the entries), so clearing their lengths zeroes their
// capacity at the cost of what this query used, not of the largest query
// the scratch served.
func (sc *leScratch) release() {
	for _, runs := range sc.runs[:cap(sc.runs)] {
		clear(runs)
	}
	sc.agg.release()
	clear(sc.dict.entries)
	clear(sc.sel.entries)
}

// rewind starts the root cursors of m keywords over at the head of their
// root lists: a walk over one root type's (ascending) roots rewinds first.
// Any cursor finds the root it is asked for (index.Index.RunsAt); a
// rewound one finds the next root by galloping from the last.
func (sc *leScratch) rewind(m int) {
	sc.at = slices.Grow(sc.at[:0], m)[:m]
	clear(sc.at)
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
		sc.runs, sc.terms, sc.ends = make([][]index.PathSet, m), make([][]core.ScoreTerms, m), make([][]int, m)
		sc.combo, sc.choice = make([]int, m), make([]core.PatternID, m)
	}
	sc.runs, sc.terms, sc.ends, sc.combo, sc.choice = sc.runs[:m], sc.terms[:m], sc.ends[:m], sc.combo[:m], sc.choice[:m]
	if len(sc.at) != m {
		sc.rewind(m)
	}
	sc.agg.size(m)
	n := 0
	for i, w := range words {
		prev := sc.runs[i]
		runs := ix.RunsAt(prev[:0], w, r, &sc.at[i])
		if only != nil {
			runs = slices.DeleteFunc(runs, func(ps index.PathSet) bool { return !only[i][ps.Pattern()] })
		}
		if len(runs) < len(prev) {
			clear(prev[len(runs):]) // keep the tail zero (release)
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
		lo := len(arena)
		ends := sc.ends[i][:0]
		for k := range runs {
			arena = runs[k].AppendTerms(arena)
			ends = append(ends, len(arena)-lo)
		}
		sc.terms[i], sc.ends[i] = arena[lo:len(arena):len(arena)], ends
	}
	sc.arena = arena
	return true
}

// runStart is where run j of keyword i starts in its terms.
func (sc *leScratch) runStart(i, j int) int {
	if j == 0 {
		return 0
	}
	return sc.ends[i][j-1]
}

// walkRoot is the root walk: it folds the fetched root's whole term product
// into sc.locals, one partial per pattern combination, in one pass. An
// odometer runs over the keywords' term lists (keyword 0 slowest, each list
// run after run, each run in posting order); the last keyword is the
// inner loop. A tuple's slot is the mixed-radix number of its runs,
// keyword 0 most significant, so slots count the combinations in the
// order firstCombo/nextCombo visit them. Restricted to one combination the
// odometer visits that combination's tuples in the order tupleWalk does,
// and each tuple's score is FromSums over sums carried from zero in
// keyword order, so each partial gets tupleWalk.fold's additions in its
// order: the same bits. Under RequireTreeShape a tuple whose paths
// re-converge is dropped.
//
// When the root's combinations outnumber leMaxSlots, the leading keywords
// are held to their runs in sc.combo and one call walks the chunk of
// combinations that share them; sc.locals then has one slot per
// combination of the chunk. pc is polled once per inner loop; false means
// it hit.
func (sc *leScratch) walkRoot(g *kg.Graph, r kg.NodeID, o *Options, pc *pollCancel) bool {
	m := len(sc.terms)
	walk := slices.Grow(sc.walk[:0], m)[:m]
	sc.walk = walk
	n := 1
	for i := m - 1; i >= 0; i-- {
		k := &walk[i]
		if runs := len(sc.ends[i]); i == m-1 || n*runs <= leMaxSlots {
			k.lo, k.hi, k.run0, k.stride = 0, len(sc.terms[i]), 0, n
			n *= runs
			continue
		}
		for ; i >= 0; i-- { // held to one run for this chunk
			j := sc.combo[i]
			walk[i].lo, walk[i].hi, walk[i].run0, walk[i].stride = sc.runStart(i, j), sc.ends[i][j], j, 0
		}
	}
	locals := slices.Grow(sc.locals[:0], n)[:n]
	clear(locals)
	sc.locals = locals
	for i := range walk {
		walk[i].pos, walk[i].run = walk[i].lo, walk[i].run0
	}
	walk[0].slot, walk[0].sumLen, walk[0].sumPR, walk[0].sumSim = 0, 0, 0, 0
	sc.carry(0)

	s, shape := *o.Scorer, o.RequireTreeShape
	last, lastEnds, tail := sc.terms[m-1], sc.ends[m-1], &walk[m-1]
	for {
		if pc.hit() {
			return false
		}
		lo := 0
		for j, hi := range lastEnds {
			acc := locals[tail.slot+j]
			for k := lo; k < hi; k++ {
				if shape && !sc.treeShaped(g, r, j, k-lo) {
					continue
				}
				t := &last[k]
				acc.Add(s.FromSums(tail.sumLen+t.Len, tail.sumPR+t.PR, tail.sumSim+t.Sim))
			}
			locals[tail.slot+j] = acc
			lo = hi
		}
		i := m - 2
		for ; i >= 0; i-- {
			k := &walk[i]
			if k.pos++; k.pos < k.hi {
				if k.pos == sc.ends[i][k.run] {
					k.run++
				}
				break
			}
			k.pos, k.run = k.lo, k.run0
		}
		if i < 0 {
			return true
		}
		sc.carry(i)
	}
}

// carry recomputes the walk's prefix sums and slot offsets below keyword
// i, which moved, down to the last keyword.
func (sc *leScratch) carry(i int) {
	walk := sc.walk
	for ; i < len(walk)-1; i++ {
		k, t := &walk[i], &sc.terms[i][walk[i].pos]
		next := &walk[i+1]
		next.slot = k.slot + k.run*k.stride
		next.sumLen = k.sumLen + t.Len
		next.sumPR = k.sumPR + t.PR
		next.sumSim = k.sumSim + t.Sim
	}
}

// treeShaped is the RequireTreeShape filter on the walk's tuple whose last
// keyword sits at position k of its run j; it builds the tuple's paths in
// the scratch buffer.
func (sc *leScratch) treeShaped(g *kg.Graph, r kg.NodeID, j, k int) bool {
	m := len(sc.walk)
	paths := sc.agg.paths
	for i := range sc.walk[:m-1] {
		w := &sc.walk[i]
		paths[i] = sc.runs[i][w.run].Path(w.pos - sc.runStart(i, w.run))
	}
	paths[m-1] = sc.runs[m-1][j].Path(k)
	return core.Subtree{Root: r, Paths: paths}.IsTreeShaped(g)
}

// pick makes run j of keyword i part of the current combination.
func (sc *leScratch) pick(i, j int) {
	sc.combo[i] = j
	sc.choice[i] = sc.runs[i][j].Pattern()
}

// chosen points agg at the current combination's runs and term lists, for
// tupleWalk to walk its product.
func (sc *leScratch) chosen() {
	for i, j := range sc.combo {
		sc.agg.sets[i] = sc.runs[i][j]
		sc.agg.lists[i] = sc.terms[i][sc.runStart(i, j):sc.ends[i][j]]
	}
}

// firstCombo starts the walk over the fetched root's pattern combinations
// (the product of Patterns(wi, r), Algorithm 3 line 8), leaving the first
// in combo and choice. Always true (fetch guarantees a run per keyword),
// so loops read: for ok := sc.firstCombo(); ok; ok = sc.nextCombo().
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
// pattern lacks bounds (never prune what cannot be bounded). at holds the
// keywords' root cursors (index.Index.NumPathsAt).
func rootTreeUB(ix *index.Index, words []text.WordID, r kg.NodeID, o Options, at []int) (ub float64, tuples int64, ok bool) {
	var lenLo, lenHi, prLo, prHi, simLo, simHi float64
	prod := 1.0
	for i, w := range words {
		n := ix.NumPathsAt(w, r, &at[i])
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
