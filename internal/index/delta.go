// Incremental index maintenance. ApplyDelta keeps the two path-pattern
// views in sync with a kg.Delta without re-running Algorithm 1 over the
// whole graph: only roots whose (d-1)-neighborhood intersects the change
// (kg.AffectedRoots) are re-enumerated, and their postings are spliced
// into the untouched remainder. The result is a NEW *Index over the new
// snapshot — the receiver stays valid, so readers on the old epoch are
// never disturbed (copy-on-write down to the posting-list level, the
// dictionary and pattern table forked, PR ranges derived on first read).
//
// Why splicing reproduces a full rebuild exactly: Build's per-word entry
// order is the stable sort of (root type, pattern, root) over entries
// generated in ascending-root DFS order. flatten returns the survivors of
// untouched roots in that order; the fresh entries of dirty roots are
// generated the same way and ordered alone; a root is never both, so one
// linear merge (spliceOrder) yields the order Build produces. finishWord
// only transposes: its input must come ordered.
//
// The change's words are interned before the DFS, in a fixed order
// (ExtendDictionary), so WordIDs agree on every shard and replica; the
// DFS only looks them up. The per-word splice that follows fans out over
// Options.Workers like Build's last phase: a word's posting list depends
// on no other word's, and the stats are gathered after the loop, so the
// new index and DeltaStats do not depend on the worker count.
//
// PatternIDs are the exception: a splice appends new patterns to the
// forked table, a rebuild numbers them by first encounter, and
// pattern-first order sorts by ID within a root type. Ranking breaks ties
// by content (core.TreePattern.CompareContent), so answers agree; but
// PatternEnum meets pattern combinations in PatternID order, so its top-k
// bound fires elsewhere and its pruned/patterns/trees counters can differ
// from a rebuild's (the "updated" rows of the equivalence matrix's
// knownDiffs).
package index

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// DeltaStats reports the cost and reach of one incremental maintenance
// pass.
type DeltaStats struct {
	// DirtyRoots is how many roots were re-enumerated (the d-neighborhood
	// of the change); a full rebuild would have enumerated every node.
	DirtyRoots int
	// EntriesRemoved / EntriesAdded count spliced postings.
	EntriesRemoved int64
	EntriesAdded   int64
	// WordsTouched is the number of posting lists that changed.
	WordsTouched int
	// TouchedWords lists the canonical surface forms of the touched
	// posting lists, sorted; servers use it to invalidate exactly the
	// cached queries whose answers could have changed.
	TouchedWords []string
	// ScoresRefreshed reports that the index scores with a new PageRank
	// vector (a structural change anywhere shifts scores everywhere; every
	// word's group PR bounds are re-derived on their next read). When set,
	// TouchedWords no longer bounds the set of queries whose answers moved
	// — caches must drop everything. Always false under UniformPR, and
	// false for pure text edits (they cannot move PageRank).
	ScoresRefreshed bool
	// Elapsed is the wall-clock maintenance time.
	Elapsed time.Duration
}

// ApplyDelta derives the index of ch.New from the index of ch.Old. opts
// must describe how the receiver was built: D (0 means "same"), the
// PageRank mode, and Workers. Synonyms are already baked into opts.Dict,
// the receiver's dictionary extended by ch (nil: ExtendDictionary).
//
// The per-word splice runs on up to Workers goroutines, and its output
// does not depend on Workers.
//
// Scoring terms stay exact: with UniformPR every node scores 1 and nothing
// needs refreshing; otherwise PageRank is recomputed on the new snapshot
// (it is a global property, so edits anywhere shift it everywhere) and
// becomes the new index's vector. Postings key on the stable node IDs
// that carry f(w), so a carried-over word keeps its term columns and gets
// a fresh PR ranges cell, derived from the new vector on first read; under
// a text-only delta it keeps its cell, and any ranges already derived.
func (ix *Index) ApplyDelta(ch *kg.Changed, opts Options) (*Index, DeltaStats, error) {
	start := time.Now()
	var ds DeltaStats
	if ch == nil || ch.Old == nil || ch.New == nil {
		return nil, ds, fmt.Errorf("index: nil change")
	}
	if ch.Old != ix.g {
		return nil, ds, fmt.Errorf("index: change was computed against a different graph snapshot")
	}
	if opts.D == 0 {
		opts.D = ix.d
	}
	if opts.D != ix.d {
		return nil, ds, fmt.Errorf("index: built with D=%d, delta requests D=%d", ix.d, opts.D)
	}
	newG := ch.New
	pr, err := resolvePageRank(newG, opts)
	if err != nil {
		return nil, ds, err
	}
	// Pure text edits keep the PR vector bit-identical (PageRank only sees
	// structure), so the old bounds stand; skip the refresh and keep
	// invalidation word-precise.
	structural := ch.AddedNodes > 0 || ch.RemovedNodes > 0 || ch.AddedEdges > 0 || ch.RemovedEdges > 0
	refreshPR := structural && !opts.uniform()
	ds.ScoresRefreshed = refreshPR

	// Fork the pattern table: the new index interns new patterns without
	// perturbing readers of the old epoch.
	dict := opts.Dict
	if dict == nil {
		dict = ExtendDictionary(ix.dict, ch)
	}
	pt := ix.pt.Fork()

	// Dirty roots: every node that could reach a touched element within
	// d-1 edges, in the old or the new snapshot. A root-filtered index
	// (Options.RootFilter) only ever held postings for accepted roots, so
	// only accepted dirty roots are cut out and re-enumerated; the rest of
	// the dirty set belongs to sibling shards.
	dirty := opts.DirtyRoots
	if dirty == nil {
		dirty = kg.AffectedRoots(ch, ix.d-1)
	}
	if !slices.IsSorted(dirty) {
		return nil, ds, fmt.Errorf("index: dirty roots are not ascending")
	}
	if opts.RootFilter != nil {
		owned := make([]kg.NodeID, 0, len(dirty))
		for _, r := range dirty {
			if opts.RootFilter(r) {
				owned = append(owned, r)
			}
		}
		dirty = owned
	}
	ds.DirtyRoots = len(dirty)
	dirtySet := make([]bool, newG.NumNodes())
	for _, r := range dirty {
		dirtySet[r] = true
	}

	// Re-run the bounded-height DFS from dirty roots only. The pass is
	// serial: the lazy word source fills its node table on first sight.
	// Dirty sets are small by construction; when an update devastates the
	// whole graph a full Build is the right tool anyway.
	cw := newCorpusWords(newG, dict, false)
	st := newBuilderState(newG, ix.d, pt, dict.Len(), cw, opts.uniform())
	for _, r := range dirty {
		st.dfsRoot(r)
	}
	if cw.err != nil {
		return nil, ds, cw.err
	}

	// Splice per word in parallel: each call writes only its own word's
	// slots; the touched words are
	// listed after the loop, in WordID order whatever the schedule.
	nWords := dict.Len()
	patRootType := patternRootTypes(pt)
	rank := patternRanks(patRootType)
	words := make([]wordIndex, nWords)
	touched := make([]bool, nWords)
	var removed, added atomic.Int64
	parallelWords(nWords, defaultWorkers(opts.Workers), func(w int) {
		var old *wordIndex
		if w < len(ix.words) && ix.words[w].n > 0 {
			old = &ix.words[w]
		}
		var fresh *postings
		if len(st.postings[w].entries) > 0 {
			fresh = &st.postings[w]
		}

		dirtyOld := 0
		if old != nil {
			dirtyOld = old.countDirty(dirty, dirtySet)
		}

		switch {
		case old == nil && fresh == nil:
			return
		case fresh == nil && dirtyOld == 0:
			// Untouched posting list: carry it over. The edge arena may
			// still need a mechanical rewrite (edge IDs shifted) and a
			// PageRank change a fresh PR cell (bindPR below); every other
			// column is shared with the old index.
			words[w] = *old
			if ch.EdgeMap != nil {
				words[w].edgeBuf = remapEdges(old.edgeBuf, ch.EdgeMap)
			}
		default:
			// Spliced posting list: surviving entries (dirty roots cut
			// out) + freshly enumerated ones, then re-derive both views
			// for this word only.
			wi := &words[w]
			surv := 0
			if old != nil {
				surv = old.numEntries() - dirtyOld
			}
			frn, fre := 0, 0
			if fresh != nil {
				frn, fre = len(fresh.entries), len(fresh.edgeBuf)
			}
			flat := make([]flatEntry, 0, surv+frn)
			buf := make([]kg.EdgeID, 0, fre+surv*2)
			if old != nil {
				oldFlat, oldBuf := old.flatten()
				for _, e := range oldFlat {
					if dirtySet[e.root] {
						continue
					}
					off := int32(len(buf))
					for _, eid := range oldBuf[e.edgeOff : e.edgeOff+e.edgeLen] {
						buf = append(buf, mapEdge(eid, ch.EdgeMap))
					}
					e.edgeOff = off
					flat = append(flat, e)
				}
			}
			if fresh != nil {
				base := int32(len(buf))
				buf = append(buf, fresh.edgeBuf...)
				for _, e := range fresh.entries {
					e.edgeOff += base
					flat = append(flat, e)
				}
			}
			if len(flat) > 0 {
				finishWord(wi, flat, spliceOrder(flat, surv, rank), buf, patRootType, pr)
			}
			// A word that vanished from the corpus leaves an empty slot
			// (lookups treat it as no postings).
			removed.Add(int64(dirtyOld))
			added.Add(int64(frn))
			touched[w] = true
		}
	})
	ds.EntriesRemoved, ds.EntriesAdded = removed.Load(), added.Load()
	for w, t := range touched {
		if t {
			ds.WordsTouched++
			ds.TouchedWords = append(ds.TouchedWords, dict.Word(text.WordID(w)))
		}
	}
	sort.Strings(ds.TouchedWords)
	bindPR(words, pr, refreshPR)

	nix := &Index{g: newG, d: ix.d, dict: dict, pt: pt, words: words}
	for w := range words {
		nix.stats.NumEntries += int64(words[w].numEntries())
	}
	nix.stats.D = ix.d
	nix.stats.NumPatterns = pt.Len()
	nix.stats.Bytes = nix.sizeBytes()
	nix.stats.BuildTime = time.Since(start)
	ds.Elapsed = nix.stats.BuildTime
	return nix, ds, nil
}

// countDirty counts the postings rooted at dirty roots off the root-first
// group table, with no per-entry scan: a lookup per dirty root when the
// dirty list is the shorter one, else a pass over the word's roots.
// dirtySet is dirty as a membership vector.
func (wi *wordIndex) countDirty(dirty []kg.NodeID, dirtySet []bool) int {
	n := 0
	if len(dirty) < len(wi.roots) {
		for _, r := range dirty {
			if gi, ok := findRoot(wi.roots, r); ok {
				n += int(wi.rgEnd[gi] - wi.rgStart(gi))
			}
		}
		return n
	}
	for gi, r := range wi.roots {
		if dirtySet[r] {
			n += int(wi.rgEnd[gi] - wi.rgStart(gi))
		}
	}
	return n
}

// spliceOrder lists flat in pattern-first order, flat being a spliced
// word: the survivors flat[:surv] as flatten returns them, then the dirty
// roots' fresh DFS output. Only the fresh entries are sorted; one linear
// pass merges them in. A survivor and a fresh entry never share a root,
// so no comparison ties and the merge equals the stable sort of the whole.
func spliceOrder(flat []flatEntry, surv int, rank []uint32) []int32 {
	fresh := patternOrder(flat[surv:], rank)
	order := make([]int32, 0, len(flat))
	before := func(i int, f *flatEntry) bool {
		ri, rf := rank[flat[i].pattern], rank[f.pattern]
		return ri < rf || ri == rf && flat[i].root < f.root
	}
	i := 0
	for _, f := range fresh {
		for ; i < surv && before(i, &flat[surv+int(f)]); i++ {
			order = append(order, int32(i))
		}
		order = append(order, int32(surv)+f)
	}
	for ; i < surv; i++ {
		order = append(order, int32(i))
	}
	return order
}

// Rebind returns an index identical to ix but reading node texts, types
// and edges from g — the new snapshot of a delta that did not touch any of
// ix's postings. It is the untouched-shard path of a sharded engine: valid
// only when the delta had no dirty roots accepted by ix's RootFilter and
// an identity edge map (ch.EdgeMap == nil). pr is g's PageRank vector when
// the delta moved it (what ApplyDelta reports as ScoresRefreshed), nil
// when it did not. A new vector hands each word a fresh PR cell and
// nothing else; every posting and the pattern table are shared with the
// receiver. dict is the new epoch's dictionary, ix's extended by the
// delta; a word it adds has no posting in ix. Both indexes stay valid.
func (ix *Index) Rebind(g *kg.Graph, pr []float64, dict *text.Dict) *Index {
	nix := *ix
	nix.g, nix.dict = g, dict
	if pr == nil {
		return &nix
	}
	nix.words = slices.Clone(ix.words)
	bindPR(nix.words, pr, true)
	return &nix
}

// mapEdge translates an old EdgeID through the delta's edge map.
func mapEdge(e kg.EdgeID, edgeMap []kg.EdgeID) kg.EdgeID {
	if edgeMap == nil {
		return e
	}
	return edgeMap[e]
}

// remapEdges translates a whole edge buffer through a non-nil edge map.
func remapEdges(buf []kg.EdgeID, edgeMap []kg.EdgeID) []kg.EdgeID {
	out := make([]kg.EdgeID, len(buf))
	for i, e := range buf {
		out[i] = edgeMap[e]
	}
	return out
}
