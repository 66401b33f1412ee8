package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"kbtable/internal/core"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// wordSim is one word occurring in a piece of text together with the
// precomputed Jaccard similarity sim(w, text) of score3.
type wordSim struct {
	Word text.WordID
	Sim  float64
}

// flatEntry is the row-oriented construction form of one posting: the DFS
// emits these, finishWord transposes them in pattern-first order into the
// columnar wordIndex layout. flatten reverses the transform for splicing.
type flatEntry struct {
	pattern core.PatternID
	root    kg.NodeID
	edgeOff int32
	edgeLen int32
	edgeEnd bool
	term    termEntry
}

// Build runs Algorithm 1: for every root r it enumerates all simple paths
// of at most D nodes by DFS, and files each (word, pattern, root, path)
// into the posting lists. Roots are fanned out across Options.Workers
// goroutines with contiguous root ranges, each interning patterns into a
// table of its own; the tables and postings are merged in root-range
// order, so the index — PatternIDs included — is the one a serial build
// produces, byte for byte, at any worker count.
func Build(g *kg.Graph, opts Options) (*Index, error) {
	if opts.D < 1 {
		return nil, fmt.Errorf("index: height threshold D must be >= 1, got %d", opts.D)
	}
	start := time.Now()
	pr, err := resolvePageRank(g, opts)
	if err != nil {
		return nil, err
	}

	ix := &Index{g: g, d: opts.D, dict: opts.Dict, pt: core.NewPatternTable()}
	if ix.dict == nil {
		ix.dict = Dictionary(g, opts.Synonyms)
	}

	// Phase 1 (single-threaded): precompute, per node and per attribute
	// type, the canonical words occurring in their text together with
	// sim(w, text).
	cw := newCorpusWords(g, ix.dict, false)
	if cw.fillAllNodes(); cw.err != nil {
		return nil, cw.err
	}

	// Phase 2 (parallel): DFS per root over contiguous root ranges.
	nWords := ix.dict.Len()
	workers := defaultWorkers(opts.Workers)
	n := g.NumNodes()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	outs := make([]*builderState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		st := newBuilderState(g, opts.D, core.NewPatternTable(), nWords, cw, opts.uniform())
		outs[w] = st
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for r := lo; r < hi; r++ {
				if opts.RootFilter != nil && !opts.RootFilter(kg.NodeID(r)) {
					continue
				}
				st.dfsRoot(kg.NodeID(r))
			}
		}(lo, hi)
	}
	wg.Wait()

	// A serial build numbers patterns in order of first encounter over
	// roots 0..n. Interning each worker's table in root-range order, in its
	// local (first-encounter) order, reproduces that numbering.
	remap := make([][]core.PatternID, workers)
	for w, st := range outs {
		remap[w] = make([]core.PatternID, st.pt.Len())
		for id := range remap[w] {
			remap[w][id] = ix.pt.Intern(st.pt.Get(core.PatternID(id)))
		}
	}

	// Phase 3 (parallel per word): merge worker outputs (worker ranges are
	// in root order, so concatenation keeps entries root-ordered), then
	// order and transpose into the two columnar views.
	ix.words = make([]wordIndex, nWords)
	patRootType := patternRootTypes(ix.pt)
	rank := patternRanks(patRootType)
	var entries int64
	parallelWords(nWords, workers, func(w int) {
		var total, totalEdges int
		for _, st := range outs {
			total += len(st.postings[w].entries)
			totalEdges += len(st.postings[w].edgeBuf)
		}
		if total == 0 {
			return
		}
		flat := make([]flatEntry, 0, total)
		buf := make([]kg.EdgeID, 0, totalEdges)
		for wk, st := range outs {
			p := &st.postings[w]
			base := int32(len(buf))
			buf = append(buf, p.edgeBuf...)
			for _, e := range p.entries {
				e.edgeOff += base
				e.pattern = remap[wk][e.pattern]
				flat = append(flat, e)
			}
			// Release worker memory early.
			p.entries = nil
			p.edgeBuf = nil
		}
		finishWord(&ix.words[w], flat, patternOrder(flat, rank), buf, patRootType, pr)
		atomicAdd(&entries, int64(total))
	})
	ix.stats.NumEntries = entries
	bindPR(ix.words, pr, true)

	ix.stats.D = opts.D
	ix.stats.NumPatterns = ix.pt.Len()
	ix.stats.Bytes = ix.sizeBytes()
	ix.stats.BuildTime = time.Since(start)
	return ix, nil
}

// atomicAdd is atomic.AddInt64 under a shorter name.
func atomicAdd(p *int64, v int64) int64 { return atomic.AddInt64(p, v) }

// parallelWords fans f out over word indexes with a bounded worker pool;
// workers <= 1 degrades to a serial loop.
func parallelWords(nWords, workers int, f func(w int)) {
	if workers > nWords {
		workers = nWords
	}
	if workers <= 1 {
		for w := 0; w < nWords; w++ {
			f(w)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w := int(atomicAdd(&next, 1)) - 1
				if w >= nWords {
					return
				}
				f(w)
			}
		}()
	}
	wg.Wait()
}

// Dictionary is g's corpus dictionary: the synonyms, by alias, then the
// words of g's type names, attribute names and node texts in ID order.
func Dictionary(g *kg.Graph, synonyms map[string]string) *text.Dict {
	d := text.NewDict()
	aliases := make([]string, 0, len(synonyms))
	for alias := range synonyms {
		aliases = append(aliases, alias)
	}
	slices.Sort(aliases)
	for _, alias := range aliases {
		d.AddSynonym(alias, synonyms[alias])
	}
	newCorpusWords(g, d, true).fillAllNodes()
	return d
}

// ExtendDictionary is the dictionary of ch.New: d forked, then the words of
// the change's new type names, new attribute names and touched node texts
// (ascending) interned in that order, so every shard and replica agrees.
func ExtendDictionary(d *text.Dict, ch *kg.Changed) *text.Dict {
	cw := newCorpusWords(ch.New, d.Fork(), true) // old type and attribute names are known
	for _, v := range ch.Touched {
		cw.node(v)
	}
	return cw.dict
}

// sims canonicalizes the token set of s and attaches sim = 1/|tokens|,
// the Jaccard similarity between any single contained word and s.
func (cw *corpusWords) sims(s string) []wordSim {
	toks := text.TokenSet(s)
	if len(toks) == 0 {
		return nil
	}
	sim := 1.0 / float64(len(toks))
	out := make([]wordSim, 0, len(toks))
	seen := make(map[text.WordID]struct{}, len(toks))
	for _, t := range toks {
		id := cw.dict.Lookup(t)
		if id == text.NoWord && cw.intern {
			id = cw.dict.Intern(t)
		} else if id == text.NoWord {
			cw.err = cmp.Or(cw.err, fmt.Errorf("index: corpus word %q is not in the dictionary", t))
			continue
		}
		id = cw.dict.Canonical(id)
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, wordSim{Word: id, Sim: sim})
	}
	return out
}

// mergeWordSims unions two wordSim lists keeping the max similarity.
func mergeWordSims(a, b []wordSim) []wordSim {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		out := make([]wordSim, len(b))
		copy(out, b)
		return out
	}
	out := make([]wordSim, len(a), len(a)+len(b))
	copy(out, a)
	for _, ws := range b {
		found := false
		for i := range out {
			if out[i].Word == ws.Word {
				if ws.Sim > out[i].Sim {
					out[i].Sim = ws.Sim
				}
				found = true
				break
			}
		}
		if !found {
			out = append(out, ws)
		}
	}
	return out
}

// corpusWords resolves the canonical words (with sim(w, text)) occurring in
// node, entity-type and attribute-type texts. Type and attribute words are
// computed eagerly (both tables are small); node words are either
// precomputed in bulk (fillAllNodes, used by Build so that DFS workers can
// share the table lock-free) or lazily on first access (used by ApplyDelta,
// whose serial DFS only visits the d-neighborhood of dirty roots — most of
// the corpus never needs tokenizing) and then not safe for concurrent use.
// Only Dictionary and ExtendDictionary intern words.
type corpusWords struct {
	g      *kg.Graph
	dict   *text.Dict
	intern bool  // intern unseen words, or else
	err    error // report the first

	typeWords [][]wordSim
	attrWords [][]wordSim
	nodeWords [][]wordSim
	nodeDone  []bool // nil once fillAllNodes ran
}

func newCorpusWords(g *kg.Graph, dict *text.Dict, intern bool) *corpusWords {
	cw := &corpusWords{
		g:         g,
		dict:      dict,
		intern:    intern,
		typeWords: make([][]wordSim, g.NumTypes()),
		attrWords: make([][]wordSim, g.NumAttrs()),
		nodeWords: make([][]wordSim, g.NumNodes()),
		nodeDone:  make([]bool, g.NumNodes()),
	}
	for t := 0; t < g.NumTypes(); t++ {
		if kg.TypeID(t) == kg.LiteralType {
			// Dummy text entities have their type omitted (Section 2.1 /
			// Example 2.1); the reserved type's display name is not
			// searchable text.
			continue
		}
		cw.typeWords[t] = cw.sims(g.TypeName(kg.TypeID(t)))
	}
	for a := 0; a < g.NumAttrs(); a++ {
		cw.attrWords[a] = cw.sims(g.AttrName(kg.AttrID(a)))
	}
	return cw
}

// fillAllNodes precomputes every node's word list; afterwards node() is
// read-only and safe for concurrent callers.
func (cw *corpusWords) fillAllNodes() {
	for v := 0; v < cw.g.NumNodes(); v++ {
		cw.fillNode(kg.NodeID(v))
	}
	cw.nodeDone = nil
}

func (cw *corpusWords) fillNode(v kg.NodeID) {
	// Words from the entity text and from its type's text; when a word
	// appears in both, keep the higher similarity ("appears in the text
	// description of a node or node type", condition ii).
	own := cw.sims(cw.g.Text(v))
	cw.nodeWords[v] = mergeWordSims(own, cw.typeWords[cw.g.Type(v)])
}

// node returns the canonical words of v's text (and its type's text).
func (cw *corpusWords) node(v kg.NodeID) []wordSim {
	if cw.nodeDone != nil && !cw.nodeDone[v] {
		cw.fillNode(v)
		cw.nodeDone[v] = true
	}
	return cw.nodeWords[v]
}

// attr returns the canonical words of an attribute type's text.
func (cw *corpusWords) attr(a kg.AttrID) []wordSim { return cw.attrWords[a] }

// postings is the per-word accumulation buffer of one worker.
type postings struct {
	entries []flatEntry
	edgeBuf []kg.EdgeID
}

// builderState is the DFS state of one construction worker. It is also the
// splice generator of incremental maintenance: ApplyDelta runs the same DFS
// from dirty roots only.
type builderState struct {
	g        *kg.Graph
	d        int
	pt       *core.PatternTable
	words    *corpusWords
	uniform  bool       // key every posting on node 0 (Options.UniformPR)
	postings []postings // by WordID

	// DFS stacks.
	root   kg.NodeID
	edges  []kg.EdgeID
	types  []kg.TypeID
	attrs  []kg.AttrID
	onPath map[kg.NodeID]bool
}

func newBuilderState(g *kg.Graph, d int, pt *core.PatternTable, nWords int, words *corpusWords, uniform bool) *builderState {
	return &builderState{
		g:        g,
		d:        d,
		pt:       pt,
		words:    words,
		uniform:  uniform,
		postings: make([]postings, nWords),
		onPath:   make(map[kg.NodeID]bool, 16),
	}
}

// dfsRoot enumerates all simple paths from r with at most d-1 edges.
func (st *builderState) dfsRoot(r kg.NodeID) {
	st.root = r
	st.edges = st.edges[:0]
	st.types = append(st.types[:0], st.g.Type(r))
	st.attrs = st.attrs[:0]
	clear(st.onPath)
	st.onPath[r] = true
	st.visit(r)
}

// visit emits the node entry for the current path ending at v, then emits
// edge entries and recurses for each out-edge while under the depth bound.
func (st *builderState) visit(v kg.NodeID) {
	g := st.g
	depth := len(st.edges) // number of edges on the current path

	if words := st.words.node(v); len(words) > 0 {
		pid := st.pt.Intern(st.snapshotPattern(false))
		for _, ws := range words {
			st.emit(ws, pid, false, v)
		}
	}
	if depth >= st.d-1 {
		return
	}
	first, n := g.OutEdges(v)
	for i := 0; i < n; i++ {
		eid := first + kg.EdgeID(i)
		e := g.Edge(eid)
		if st.onPath[e.Dst] {
			// Simple-path policy: a path revisiting a node cannot be part
			// of a tree-shaped subtree, so neither node nor edge entries
			// are emitted for it.
			continue
		}
		// Edge match: the path ends at this edge's attribute type.
		if words := st.words.attr(e.Attr); len(words) > 0 {
			st.edges = append(st.edges, eid)
			st.attrs = append(st.attrs, e.Attr)
			pid := st.pt.Intern(st.snapshotPattern(true))
			for _, ws := range words {
				st.emit(ws, pid, true, v) // f(w) is the edge; its PR is source v's
			}
			st.edges = st.edges[:len(st.edges)-1]
			st.attrs = st.attrs[:len(st.attrs)-1]
		}
		// Extend the node path.
		st.edges = append(st.edges, eid)
		st.attrs = append(st.attrs, e.Attr)
		st.types = append(st.types, g.Type(e.Dst))
		st.onPath[e.Dst] = true
		st.visit(e.Dst)
		st.onPath[e.Dst] = false
		st.types = st.types[:len(st.types)-1]
		st.attrs = st.attrs[:len(st.attrs)-1]
		st.edges = st.edges[:len(st.edges)-1]
	}
}

// snapshotPattern copies the current DFS type/attr stacks into a pattern.
func (st *builderState) snapshotPattern(edgeEnd bool) core.PathPattern {
	types := make([]kg.TypeID, len(st.types))
	copy(types, st.types)
	attrs := make([]kg.AttrID, len(st.attrs))
	copy(attrs, st.attrs)
	return core.PathPattern{Types: types, Attrs: attrs, EdgeEnd: edgeEnd}
}

// emit files one posting. matchNode is the node carrying f(w) for PR
// purposes (and its key): the end node for node matches, the edge source
// for edge matches.
func (st *builderState) emit(ws wordSim, pid core.PatternID, edgeEnd bool, matchNode kg.NodeID) {
	if st.uniform {
		matchNode = 0
	}
	p := &st.postings[ws.Word]
	off := int32(len(p.edgeBuf))
	p.edgeBuf = append(p.edgeBuf, st.edges...)
	p.entries = append(p.entries, flatEntry{
		pattern: pid,
		root:    st.root,
		edgeOff: off,
		edgeLen: int32(len(st.edges)),
		edgeEnd: edgeEnd,
		term:    termEntry{len: int32(len(st.edges) + 1), node: matchNode, sim: ws.Sim},
	})
}

// patternRootTypes snapshots PatternID -> root type for fast sorting.
func patternRootTypes(pt *core.PatternTable) []kg.TypeID {
	n := pt.Len()
	out := make([]kg.TypeID, n)
	for i := 0; i < n; i++ {
		out[i] = pt.Get(core.PatternID(i)).RootType()
	}
	return out
}

// patternRanks maps each PatternID to its dense rank in pattern-first
// order: by root type, then PatternID. A rank fits 32 bits whatever the
// ID values are, so it is the radix key of an entry's pattern.
func patternRanks(patRootType []kg.TypeID) []uint32 {
	keys := make([]uint32, len(patRootType))
	for p, rt := range patRootType {
		keys[p] = radixKey(int32(rt))
	}
	rank := make([]uint32, len(keys))
	for r, p := range stableOrder(keys) {
		rank[p] = uint32(r)
	}
	return rank
}

// radixKey maps an int32 to a uint32 of the same order.
func radixKey(v int32) uint32 { return uint32(v) ^ 1<<31 }

// patternOrder returns the permutation listing flat in pattern-first order
// (root type, pattern, root), flat being DFS output over ascending roots
// as Build and ApplyDelta generate it. It sorts by pattern rank stably:
// within one pattern the input index then orders the roots, and one
// root's paths keep their DFS order.
func patternOrder(flat []flatEntry, rank []uint32) []int32 {
	keys := make([]uint32, len(flat))
	for i := range flat {
		keys[i] = rank[flat[i].pattern]
	}
	return stableOrder(keys)
}

// stableOrder returns the permutation that sorts keys stably: order[i] is
// the index of the i-th smallest key, equal keys in input order. It is an
// LSD radix sort over the low bytes in which the keys differ.
func stableOrder(keys []uint32) []int32 {
	n := len(keys)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	lo, hi := ^uint32(0), uint32(0)
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	// Every key lies in [lo, hi], so all share the bits above lo^hi's top.
	tmp := make([]int32, n)
	for shift := 0; shift < bits.Len32(lo^hi); shift += 8 {
		var start [256]int32
		for _, k := range keys {
			start[byte(k>>shift)]++
		}
		sum := int32(0)
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, i := range order {
			d := byte(keys[i] >> shift)
			tmp[start[d]] = i
			start[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// finishWord transposes one word's flat postings into the columnar layout
// and derives both views' run and group tables. order must list flat in
// pattern-first order (patternOrder, or ApplyDelta's splice merge); the
// entries themselves are never moved. buf backs their edge ranges; pr is
// the index's PR vector.
func finishWord(wi *wordIndex, flat []flatEntry, order []int32, buf []kg.EdgeID, patRootType []kg.TypeID, pr []float64) {
	// Transpose into per-entry columns; keep the per-entry pattern/root
	// keys in transient arrays for the run scan and the root-first sort,
	// and count the (pattern, root) runs and pattern groups on the way.
	n := len(order)
	wi.n = int32(n)
	wi.termRef = make([]uint32, n)
	wi.edgeStart = make([]int32, n+1)
	wi.edgeEnds = make([]uint64, (n+63)/64)
	totalEdges := 0
	for i := range flat {
		totalEdges += int(flat[i].edgeLen)
	}
	wi.edgeBuf = make([]kg.EdgeID, 0, totalEdges)
	pats := make([]core.PatternID, n)
	roots := make([]kg.NodeID, n)
	terms := newTermInterner(n)
	nRuns, nGroups := 0, 0
	for i, k := range order {
		fe := &flat[k]
		wi.edgeStart[i] = int32(len(wi.edgeBuf))
		wi.edgeBuf = append(wi.edgeBuf, buf[fe.edgeOff:fe.edgeOff+fe.edgeLen]...)
		if fe.edgeEnd {
			wi.edgeEnds[i>>6] |= 1 << (uint(i) & 63)
		}
		wi.termRef[i] = terms.intern(fe.term)
		pats[i] = fe.pattern
		roots[i] = fe.root
		if i == 0 || pats[i] != pats[i-1] {
			nGroups++
			nRuns++
		} else if roots[i] != roots[i-1] {
			nRuns++
		}
	}
	wi.edgeStart[n] = int32(len(wi.edgeBuf))
	wi.termPool = compact(terms.pool)

	// Scan out the (pattern, root) runs and pattern groups.
	groupPats := make([]core.PatternID, 0, nGroups)
	groupRuns := make([]int32, 0, nGroups) // run count per group
	runPats := make([]core.PatternID, 0, nRuns)
	runRoots := make([]kg.NodeID, 0, nRuns)
	wi.runEnd = make([]int32, 0, nRuns)
	for i := 0; i < n; {
		j := i
		pat := pats[i]
		runs := int32(0)
		for j < n && pats[j] == pat {
			k := j
			root := roots[j]
			for k < n && pats[k] == pat && roots[k] == root {
				k++
			}
			wi.runEnd = append(wi.runEnd, int32(k))
			runPats = append(runPats, pat)
			runRoots = append(runRoots, root)
			runs++
			j = k
		}
		groupPats = append(groupPats, pat)
		groupRuns = append(groupRuns, runs)
		i = j
	}
	wi.runEnd = compact(wi.runEnd)

	buildGroupTables(wi, groupPats, groupRuns, runRoots, patRootType, pr)
	buildRootFirst(wi, runPats, runRoots)
}

// buildGroupTables derives the pattern-first group tables from the run
// partition: the delta-varint root arena with its skip table, the per-group
// score-term bounds (PR ones under pr), and the type groups. Shared by
// finishWord and the wire decoder.
func buildGroupTables(wi *wordIndex, groupPats []core.PatternID, groupRuns []int32, runRoots []kg.NodeID, patRootType []kg.TypeID, pr []float64) {
	// Size every table exactly up front: the varint bytes of each group's
	// root deltas, one skip point per rootSkipInterval runs, one type
	// group per root-type change.
	nBytes, nSkips, nTypes := 0, 0, 0
	run := int32(0)
	for gi, pat := range groupPats {
		prev := kg.NodeID(-1)
		for _, root := range runRoots[run : run+groupRuns[gi]] {
			nBytes += uvarintLen(uint64(root - prev))
			prev = root
		}
		run += groupRuns[gi]
		nSkips += int((groupRuns[gi] + rootSkipInterval - 1) / rootSkipInterval)
		if gi == 0 || patRootType[pat] != patRootType[groupPats[gi-1]] {
			nTypes++
		}
	}
	wi.rootBytes = make([]byte, 0, nBytes)
	wi.skipRoots = make([]kg.NodeID, 0, nSkips)
	wi.skipOffs = make([]int32, 0, nSkips)
	wi.skipRun = make([]int32, 0, nSkips)
	wi.typeGroups = make([]typeGroup, 0, nTypes)
	wi.patGroups = make([]patGroup, 0, len(groupPats))
	run = 0
	for gi, pat := range groupPats {
		pg := patGroup{
			Pattern:   pat,
			RootType:  patRootType[pat],
			Start:     wi.runStart(run),
			RunStart:  run,
			RunEnd:    run + groupRuns[gi],
			RootOff:   int32(len(wi.rootBytes)),
			SkipStart: int32(len(wi.skipRoots)),
		}
		pg.End = wi.runEnd[pg.RunEnd-1]
		prev := kg.NodeID(-1)
		b := patBounds{}
		for k := pg.RunStart; k < pg.RunEnd; k++ {
			root := runRoots[k]
			wi.rootBytes = binary.AppendUvarint(wi.rootBytes, uint64(root-prev))
			prev = root
			if (k-pg.RunStart)%rootSkipInterval == 0 {
				wi.skipRoots = append(wi.skipRoots, root)
				wi.skipOffs = append(wi.skipOffs, int32(len(wi.rootBytes)))
				wi.skipRun = append(wi.skipRun, k)
			}
			lo, hi := wi.runStart(k), wi.runEnd[k]
			if rl := hi - lo; rl > b.maxRun {
				b.maxRun = rl
			}
			for i := lo; i < hi; i++ {
				t := &wi.termPool[wi.termRef[i]]
				if i == pg.Start {
					b.minLen, b.maxLen = t.len, t.len
					b.minSim, b.maxSim = t.sim, t.sim
					continue
				}
				if t.len < b.minLen {
					b.minLen = t.len
				}
				if t.len > b.maxLen {
					b.maxLen = t.len
				}
				if t.sim < b.minSim {
					b.minSim = t.sim
				}
				if t.sim > b.maxSim {
					b.maxSim = t.sim
				}
			}
		}
		pg.SkipEnd = int32(len(wi.skipRoots))
		pg.bounds = b
		wi.patGroups = append(wi.patGroups, pg)
		run = pg.RunEnd
	}
	wi.rootBytes = compact(wi.rootBytes)
	wi.skipRoots = compact(wi.skipRoots)
	wi.skipOffs = compact(wi.skipOffs)
	wi.skipRun = compact(wi.skipRun)
	wi.pr = pr

	for i := 0; i < len(wi.patGroups); {
		j := i
		rt := wi.patGroups[i].RootType
		for j < len(wi.patGroups) && wi.patGroups[j].RootType == rt {
			j++
		}
		wi.typeGroups = append(wi.typeGroups, typeGroup{Type: rt, Start: int32(i), End: int32(j)})
		i = j
	}
}

// uvarintLen is the length of x's binary.AppendUvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// buildRootFirst derives the root-first view: the permutation sorted by
// (root, pattern, position) and its per-root / per-(root, pattern) run
// tables. runPats/runRoots are the per-run keys of the pattern-first run
// partition. (root, pattern) is unique per run and entries within a run
// already sit in position order, so ordering the RUNS suffices; and all
// of one root's patterns share its type, so its runs arrive in pattern
// order and a stable sort by root alone yields (root, pattern) order.
func buildRootFirst(wi *wordIndex, runPats []core.PatternID, runRoots []kg.NodeID) {
	nRuns := len(runRoots)
	keys := make([]uint32, nRuns)
	for k, r := range runRoots {
		keys[k] = radixKey(int32(r))
	}
	order := stableOrder(keys)
	nRoots := 0
	for idx, k := range order {
		if idx == 0 || runRoots[k] != runRoots[order[idx-1]] {
			nRoots++
		}
	}
	wi.rootOrder = make([]int32, wi.n)
	wi.roots = make([]kg.NodeID, 0, nRoots)
	wi.rgEnd = make([]int32, 0, nRoots)
	wi.rgRunEnd = make([]int32, 0, nRoots)
	wi.rfPat = make([]core.PatternID, 0, nRuns)
	wi.rfEnd = make([]int32, 0, nRuns)
	pos := int32(0)
	for idx, k := range order {
		if idx == 0 || runRoots[k] != runRoots[order[idx-1]] {
			if idx > 0 {
				wi.rgEnd = append(wi.rgEnd, pos)
				wi.rgRunEnd = append(wi.rgRunEnd, int32(len(wi.rfPat)))
			}
			wi.roots = append(wi.roots, runRoots[k])
		}
		for i := wi.runStart(k); i < wi.runEnd[k]; i++ {
			wi.rootOrder[pos] = i
			pos++
		}
		wi.rfPat = append(wi.rfPat, runPats[k])
		wi.rfEnd = append(wi.rfEnd, pos)
	}
	if nRuns > 0 {
		wi.rgEnd = append(wi.rgEnd, pos)
		wi.rgRunEnd = append(wi.rgRunEnd, int32(len(wi.rfPat)))
	}
	wi.roots = compact(wi.roots)
	wi.rgEnd = compact(wi.rgEnd)
	wi.rgRunEnd = compact(wi.rgRunEnd)
	wi.rfPat = compact(wi.rfPat)
	wi.rfEnd = compact(wi.rfEnd)
}

// flatten transposes the columnar word back into row form for splicing.
// The returned entries' edge ranges index wi.edgeBuf, which is returned
// unchanged (callers copy when they rewrite edges).
func (wi *wordIndex) flatten() ([]flatEntry, []kg.EdgeID) {
	flat := make([]flatEntry, 0, wi.n)
	var e flatEntry
	for gi := range wi.patGroups {
		pg := &wi.patGroups[gi]
		prev := kg.NodeID(-1)
		off := pg.RootOff
		for k := pg.RunStart; k < pg.RunEnd; k++ {
			prev, off = decodeRootDelta(wi.rootBytes, off, prev)
			for i := wi.runStart(k); i < wi.runEnd[k]; i++ {
				e = flatEntry{
					pattern: pg.Pattern,
					root:    prev,
					edgeOff: wi.edgeStart[i],
					edgeLen: wi.edgeStart[i+1] - wi.edgeStart[i],
					edgeEnd: wi.edgeEndBit(i),
					term:    wi.termPool[wi.termRef[i]],
				}
				flat = append(flat, e)
			}
		}
	}
	return flat, wi.edgeBuf
}

// compact copies s into an exactly-sized backing array, so append slack
// from construction never lingers in the resident index (and sizeBytes is
// a true measurement).
func compact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// sizeBytes measures the resident size of both views (Figure 6's "Size"):
// the exact sum of the columnar arenas, group tables and one PR cell a word.
func (ix *Index) sizeBytes() int64 {
	total := int64(len(ix.words)) * int64(unsafe.Sizeof(wordIndex{})+unsafe.Sizeof(prCell{}))
	for i := range ix.words {
		total += ix.words[i].sizeBytes()
	}
	return total
}

// sizeBytes sums this word's columnar arenas exactly.
func (wi *wordIndex) sizeBytes() int64 {
	var t int64
	t += int64(len(wi.termRef)) * 4
	t += int64(len(wi.edgeStart)) * 4
	t += int64(len(wi.edgeEnds)) * 8
	t += int64(len(wi.edgeBuf)) * 4
	t += int64(len(wi.termPool)) * int64(unsafe.Sizeof(termEntry{}))
	t += int64(len(wi.runEnd)) * 4
	t += int64(len(wi.rootBytes))
	t += int64(len(wi.skipRoots)) * 4
	t += int64(len(wi.skipOffs)) * 4
	t += int64(len(wi.skipRun)) * 4
	t += int64(len(wi.patGroups)) * int64(unsafe.Sizeof(patGroup{}))
	t += int64(len(wi.patGroups)) * int64(unsafe.Sizeof(prRange{})) // derived or not
	t += int64(len(wi.typeGroups)) * int64(unsafe.Sizeof(typeGroup{}))
	t += int64(len(wi.rootOrder)) * 4
	t += int64(len(wi.roots)) * 4
	t += int64(len(wi.rgEnd)) * 4
	t += int64(len(wi.rgRunEnd)) * 4
	t += int64(len(wi.rfPat)) * 4
	t += int64(len(wi.rfEnd)) * 4
	return t
}
