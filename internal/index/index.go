// Package index implements the paper's path-pattern based inverted indexes
// (Section 3, Algorithm 1). For every word w it materializes all paths that
// start at some root r, follow a pattern P, and end at a node or edge whose
// text (entity text, entity-type text, or attribute-type text) contains w.
//
// The same entry set is exposed in the two orders of Figure 4:
//
//	pattern-first: Patterns(w), Roots(w,P), Paths(w,P,r)   — used by PATTERNENUM
//	root-first:    Roots(w), Patterns(w,r), Paths(w,r[,P]) — used by LINEARENUM
//
// Entries carry the precomputed score terms |T(w)| and sim(w,f(w)) and the
// node carrying f(w), whose PR(f(w)) is read from the index's PageRank
// vector when a run's terms are copied out: online scoring is a
// constant-time fold per path (Section 3, last paragraph before Theorem 2),
// and a PageRank change (a whole-graph property) rewrites no posting.
//
// Storage is columnar (struct-of-arrays): instead of a slice of entry
// structs the posting lists are parallel per-entry arrays — a term-pool
// reference, a cumulative edge offset, and an edge-end bit — plus
// per-(pattern, root) run tables whose roots are delta-varint compressed
// per pattern group.
// The term keys (|T(w)|, node, sim) repeat heavily (the node is per match,
// sim per text), so each word stores the distinct triples once in a value
// pool and entries hold a 4-byte reference. Both views iterate over cache-dense
// arrays and the resident cost is ~12 bytes per posting instead of the ~48
// of the former array-of-structs layout. A posting run — Paths(w,P,r) or
// Paths(w,r,P) — is read through a borrowed PathSet: score terms for
// scoring, concrete paths only for what consumes them.
package index

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"kbtable/internal/core"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
	"kbtable/internal/text"
)

// Options configure index construction.
type Options struct {
	// D is the height threshold: indexed paths have at most D nodes
	// (counting an edge match's target node). Must be >= 1.
	D int
	// PageRank supplies per-node importance for score2. If nil, PageRank
	// is computed with the paper's defaults (a=0.85, eps=1e-8).
	PageRank []float64
	// UniformPR uses PR(v)=1 for all nodes (Example 2.4's assumption)
	// instead of computing PageRank. Ignored when PageRank is non-nil.
	UniformPR bool
	// Synonyms maps alias words to canonical words; both point at the same
	// posting list (Section 3: "every word has its stemmed version and
	// synonyms in our index pointing to the same path-pattern entry").
	Synonyms map[string]string
	// Corpus is the indexed graph's tokenized text and dictionary, which
	// the index only reads: NewCorpus for Build, the receiver's Extend-ed
	// by the change for ApplyDelta. The shard layer hands one per engine
	// epoch to every shard; nil derives the index's own, as a nil PageRank
	// computes its own.
	Corpus *Corpus
	// Workers bounds the parallelism of construction and of maintenance
	// (ApplyDelta's per-word splice); defaults to GOMAXPROCS. Neither
	// output depends on it.
	Workers int
	// RootFilter, when non-nil, restricts the index to paths ROOTED at
	// accepted nodes: Build only DFSes from accepted roots, and ApplyDelta
	// only re-enumerates accepted dirty roots. Paths still traverse (and
	// read words from the corpus of) the whole graph — only the candidate
	// roots are partitioned. The shard layer passes its ownership test
	// here; an engine holding one filtered index per shard covers every
	// root exactly once. The same filter must be passed to every
	// maintenance call on indexes built with it.
	RootFilter func(kg.NodeID) bool
	// DirtyRoots optionally injects a precomputed kg.AffectedRoots(ch, D-1)
	// into ApplyDelta (before RootFilter is applied), so an engine applying
	// one delta to many shard indexes runs the affected-roots BFS once
	// instead of once per shard. Ignored by Build. nil means ApplyDelta
	// computes it. The roots must be ascending, as AffectedRoots returns
	// them: the splice merge relies on fresh postings arriving root-ordered.
	DirtyRoots []kg.NodeID
}

// patGroup is a run of entries with the same pattern (pattern-first order).
type patGroup struct {
	Pattern    core.PatternID
	RootType   kg.TypeID
	Start, End int32 // entry range
	RunStart   int32 // range in runEnd (global run indexes)
	RunEnd     int32
	RootOff    int32 // byte offset of the group's delta-varint roots in rootBytes
	SkipStart  int32 // range in skipRoots/skipOffs/skipRun
	SkipEnd    int32
	// bounds summarize the group's score terms for the streaming
	// executor's pruning; derived alongside the group scan on every
	// construction path (build, delta, load).
	bounds patBounds
}

// patBounds are the per-(word, pattern) PR-independent score-term ranges
// and the largest per-root path run; with prCell's ranges, PatternBounds.
type patBounds struct {
	minLen, maxLen int32
	minSim, maxSim float64
	maxRun         int32
}

// prRange is one pattern group's PR(f(w)) range under the index's vector.
type prRange struct{ min, max float64 }

// prCell holds a word's per-group PR ranges, derived on first read (only
// PATTERNENUM's pruning reads them): a PageRank change derives nothing.
type prCell struct {
	once   sync.Once
	ranges *prRange // first of len(patGroups); a slice header would add 16 B a word
}

// termEntry is one distinct term key of a word's postings: |T(w)|, the
// node carrying f(w) (the end node of a node match, the edge source of an
// edge match; node 0 under UniformPR) and sim(w, f(w)).
type termEntry struct {
	len  int32
	node kg.NodeID
	sim  float64
}

// terms resolves the entry's score terms under the PR vector pr.
func (t *termEntry) terms(pr []float64) core.ScoreTerms {
	return core.ScoreTerms{Len: int(t.len), PR: pr[t.node], Sim: t.sim}
}

// typeGroup is a run of patGroups sharing a root type.
type typeGroup struct {
	Type       kg.TypeID
	Start, End int32 // patGroup range
}

// rootSkipInterval is the skip-table stride over a pattern group's
// delta-varint root list: every rootSkipInterval-th run records its decoded
// root and resume offset, so a root lookup binary-searches the skips and
// decodes at most rootSkipInterval-1 varints.
const rootSkipInterval = 32

// wordIndex holds both index views for one canonical word, as parallel
// columns over the pattern-first entry order (root type, pattern, root,
// path).
type wordIndex struct {
	n int32 // number of postings

	// Per-entry columns.
	termRef   []uint32    // -> termPool
	edgeStart []int32     // len n+1: cumulative edge offsets into edgeBuf
	edgeEnds  []uint64    // bitset: entry i matched an edge's attribute type
	edgeBuf   []kg.EdgeID // concatenated edge sequences, entry order

	// termPool holds the distinct term keys of this word's entries, in
	// first-seen entry order (deterministic).
	termPool []termEntry

	// Pattern-first view. Entries partition into (pattern, root) runs that
	// are contiguous across the whole word: run k spans
	// [runEnd[k-1], runEnd[k]). Run roots are stored delta-varint encoded
	// per pattern group in rootBytes with a skip table every
	// rootSkipInterval runs.
	runEnd     []int32
	rootBytes  []byte
	skipRoots  []kg.NodeID
	skipOffs   []int32 // byte offset in rootBytes just after the skip run's delta
	skipRun    []int32 // global run index of the skip point
	patGroups  []patGroup
	typeGroups []typeGroup
	pr         []float64 // the index's PR vector (shared), which terms join
	prc        *prCell   // per-patGroup PR ranges under pr, derived on first read

	// Root-first view: a permutation of entries sorted by (root, pattern),
	// partitioned per distinct root (rgEnd) into per-pattern runs
	// (rfPat/rfEnd, both indexing rootOrder).
	rootOrder []int32
	roots     []kg.NodeID // sorted distinct roots (root-first Roots(w))
	rgEnd     []int32     // per root: end position in rootOrder
	rgRunEnd  []int32     // per root: end run index in rfPat/rfEnd
	rfPat     []core.PatternID
	rfEnd     []int32
}

// numEntries returns the posting count.
func (wi *wordIndex) numEntries() int { return int(wi.n) }

// runStart returns the first entry of global run k.
func (wi *wordIndex) runStart(k int32) int32 {
	if k == 0 {
		return 0
	}
	return wi.runEnd[k-1]
}

// rfStart returns the first rootOrder position of root-first run k.
func (wi *wordIndex) rfStart(k int32) int32 {
	if k == 0 {
		return 0
	}
	return wi.rfEnd[k-1]
}

// rgStart returns the first rootOrder position of root group gi.
func (wi *wordIndex) rgStart(gi int) int32 {
	if gi == 0 {
		return 0
	}
	return wi.rgEnd[gi-1]
}

// rgRunStart returns the first root-first run of root group gi.
func (wi *wordIndex) rgRunStart(gi int) int32 {
	if gi == 0 {
		return 0
	}
	return wi.rgRunEnd[gi-1]
}

// edgeEndBit reports whether entry idx matched an edge's attribute type.
func (wi *wordIndex) edgeEndBit(idx int32) bool {
	return wi.edgeEnds[idx>>6]&(1<<uint(idx&63)) != 0
}

// decodeRootDelta reads one delta-varint from b, advancing prev. The first
// delta of a group is encoded against prev = -1, so deltas are always >= 1.
func decodeRootDelta(b []byte, off int32, prev kg.NodeID) (kg.NodeID, int32) {
	var d uint64
	var shift uint
	for {
		c := b[off]
		off++
		d |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		shift += 7
	}
	return prev + kg.NodeID(d), off
}

// Index is the pair of path-pattern indexes over a knowledge graph.
type Index struct {
	g     *kg.Graph
	d     int
	dict  *text.Dict
	pt    *core.PatternTable
	words []wordIndex // by canonical WordID; may be shorter than dict.Len()

	stats Stats
}

// Stats reports construction cost, the quantities of the paper's Figure 6.
type Stats struct {
	BuildTime   time.Duration
	Bytes       int64 // exact resident size of the columnar posting arenas
	NumEntries  int64 // total (word, path) postings
	NumPatterns int   // distinct path patterns interned
	D           int
}

// BytesPerEntry is the resident posting cost: Bytes averaged over the
// entries (0 when the index is empty).
func (s Stats) BytesPerEntry() float64 {
	if s.NumEntries == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.NumEntries)
}

func (s Stats) String() string {
	return fmt.Sprintf("index{d=%d time=%v size=%.1fMB entries=%d (%.1fB/entry) patterns=%d}",
		s.D, s.BuildTime.Round(time.Millisecond), float64(s.Bytes)/(1<<20), s.NumEntries, s.BytesPerEntry(), s.NumPatterns)
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *kg.Graph { return ix.g }

// D returns the height threshold the index was built with.
func (ix *Index) D() int { return ix.d }

// Dict returns the corpus dictionary (for query tokenization).
func (ix *Index) Dict() *text.Dict { return ix.dict }

// PatternTable returns the shared pattern interner.
func (ix *Index) PatternTable() *core.PatternTable { return ix.pt }

// Stats returns construction statistics.
func (ix *Index) Stats() Stats { return ix.stats }

// word returns the posting structure for w, or nil when w has no postings.
func (ix *Index) word(w text.WordID) *wordIndex {
	if w < 0 || int(w) >= len(ix.words) {
		return nil
	}
	wi := &ix.words[w]
	if wi.n == 0 {
		return nil
	}
	return wi
}

// --- Pattern-first access methods (Figure 4a) ---

// Patterns returns all path patterns following which some root reaches w.
func (ix *Index) Patterns(w text.WordID) []core.PatternID {
	wi := ix.word(w)
	if wi == nil {
		return nil
	}
	out := make([]core.PatternID, len(wi.patGroups))
	for i := range wi.patGroups {
		out[i] = wi.patGroups[i].Pattern
	}
	return out
}

// PatternsOfType returns the path patterns rooted at type c that reach w:
// the paper's PatternsC(wi) of Algorithm 2 line 3.
func (ix *Index) PatternsOfType(w text.WordID, c kg.TypeID) []core.PatternID {
	wi := ix.word(w)
	if wi == nil {
		return nil
	}
	tg, ok := findTypeGroup(wi.typeGroups, c)
	if !ok {
		return nil
	}
	out := make([]core.PatternID, 0, tg.End-tg.Start)
	for i := tg.Start; i < tg.End; i++ {
		out = append(out, wi.patGroups[i].Pattern)
	}
	return out
}

// RootTypes returns the distinct root types of w's patterns, sorted.
func (ix *Index) RootTypes(w text.WordID) []kg.TypeID {
	wi := ix.word(w)
	if wi == nil {
		return nil
	}
	out := make([]kg.TypeID, len(wi.typeGroups))
	for i := range wi.typeGroups {
		out[i] = wi.typeGroups[i].Type
	}
	return out
}

// RootsOf returns the sorted distinct roots that reach w through pattern p.
func (ix *Index) RootsOf(w text.WordID, p core.PatternID) []kg.NodeID {
	g, ok := ix.Group(w, p)
	if !ok {
		return nil
	}
	return g.Roots()
}

// Group is a borrowed handle on one (word, pattern) posting group of the
// pattern-first view: resolving it costs one binary search over the word's
// group table, after which roots, bounds and per-root runs are read without
// searching again. Valid as long as the index is.
type Group struct {
	wi *wordIndex
	gi int32
}

// Group resolves the posting group of (w, p); ok is false when w has no
// postings under p.
func (ix *Index) Group(w text.WordID, p core.PatternID) (Group, bool) {
	wi := ix.word(w)
	if wi == nil {
		return Group{}, false
	}
	gi := findPatGroup(wi.patGroups, ix.pt, p)
	if gi < 0 {
		return Group{}, false
	}
	return Group{wi: wi, gi: int32(gi)}, true
}

// Roots decodes the group's sorted distinct roots (pattern-first
// Roots(w, P)) into a fresh slice.
func (g Group) Roots() []kg.NodeID {
	pg := &g.wi.patGroups[g.gi]
	out := make([]kg.NodeID, 0, pg.RunEnd-pg.RunStart)
	prev := kg.NodeID(-1)
	off := pg.RootOff
	for k := pg.RunStart; k < pg.RunEnd; k++ {
		prev, off = decodeRootDelta(g.wi.rootBytes, off, prev)
		out = append(out, prev)
	}
	return out
}

// Bounds returns the group's posting envelope.
func (g Group) Bounds() PatternBounds {
	b, pb := &g.wi.patGroups[g.gi].bounds, &g.wi.prBounds()[g.gi]
	return PatternBounds{
		MinLen: int(b.minLen), MaxLen: int(b.maxLen),
		MinPR: pb.min, MaxPR: pb.max,
		MinSim: b.minSim, MaxSim: b.maxSim,
		MaxRun: int(b.maxRun),
	}
}

// Cursor returns a run cursor positioned before the group's first root.
func (g Group) Cursor() RunCursor {
	pg := &g.wi.patGroups[g.gi]
	return RunCursor{g: g, k: pg.RunStart - 1, root: -1, off: pg.RootOff}
}

// RunCursor walks one group's delta-varint root list forward. A caller
// visiting roots in ascending order (PATTERNENUM aggregates a combination
// over its ascending root intersection) pays one decode per run passed, or
// one skip-table search per rootSkipInterval-run block jumped, instead of a
// group search plus a skip search per root.
type RunCursor struct {
	g    Group
	k    int32     // global run index the cursor stands on
	root kg.NodeID // root of run k; -1 before the first run
	off  int32     // offset in rootBytes just after run k's delta
}

// Seek moves to root r and returns its run; ok is false when the group has
// no run for r. Seeking backwards restarts from the group's first run.
func (c *RunCursor) Seek(r kg.NodeID) (PathSet, bool) {
	wi := c.g.wi
	pg := &wi.patGroups[c.g.gi]
	if r < c.root {
		*c = c.g.Cursor()
	}
	if r > c.root {
		// Jump to the last skip point at or before r when one lies ahead.
		si := pg.SkipStart + (c.k+1-pg.RunStart+rootSkipInterval-1)/rootSkipInterval
		if si < pg.SkipEnd && wi.skipRoots[si] <= r {
			j, found := slices.BinarySearch(wi.skipRoots[si:pg.SkipEnd], r)
			if !found {
				j-- // the last skip root below r; there is one, skipRoots[si]
			}
			si += int32(j)
			c.k, c.root, c.off = wi.skipRun[si], wi.skipRoots[si], wi.skipOffs[si]
		}
		for c.root < r && c.k+1 < pg.RunEnd {
			c.root, c.off = decodeRootDelta(wi.rootBytes, c.off, c.root)
			c.k++
		}
	}
	if c.root != r {
		return PathSet{}, false
	}
	return PathSet{wi: wi, pat: pg.Pattern, root: r, lo: wi.runStart(c.k), hi: wi.runEnd[c.k]}, true
}

// PathSet is a borrowed view of one (word, pattern, root) posting run of
// either index view. It is valid as long as the index is; its accessors
// read the columnar arrays in place so hot loops iterate without
// allocating.
type PathSet struct {
	wi   *wordIndex
	pat  core.PatternID
	root kg.NodeID
	lo   int32
	hi   int32
	// order is nil for a pattern-first run (entries lo..hi are contiguous)
	// and the root-first permutation for a root-first run (entries are
	// order[lo..hi]).
	order []int32
}

// Len returns the number of paths in the run.
func (ps *PathSet) Len() int { return int(ps.hi - ps.lo) }

// Pattern returns the run's path pattern.
func (ps *PathSet) Pattern() core.PatternID { return ps.pat }

// entry maps the run's k-th position to its entry index.
func (ps *PathSet) entry(k int) int32 {
	if ps.order != nil {
		return ps.order[ps.lo+int32(k)]
	}
	return ps.lo + int32(k)
}

// Path returns the k-th concrete path of the run.
func (ps *PathSet) Path(k int) core.Path {
	idx := ps.entry(k)
	lo, hi := ps.wi.edgeStart[idx], ps.wi.edgeStart[idx+1]
	return core.Path{Root: ps.root, Edges: ps.wi.edgeBuf[lo:hi:hi], EdgeEnd: ps.wi.edgeEndBit(idx)}
}

// AppendTerms appends the run's score terms, in posting order, to dst:
// scoring reads only these, so the executor copies them out of the term
// pool once per run, joining PR from the index's vector, and never touches
// edges or patterns.
func (ps *PathSet) AppendTerms(dst []core.ScoreTerms) []core.ScoreTerms {
	wi, pr := ps.wi, ps.wi.pr
	if ps.order != nil {
		for _, idx := range ps.order[ps.lo:ps.hi] {
			dst = append(dst, wi.termPool[wi.termRef[idx]].terms(pr))
		}
		return dst
	}
	for _, ref := range wi.termRef[ps.lo:ps.hi] {
		dst = append(dst, wi.termPool[ref].terms(pr))
	}
	return dst
}

// PatternBounds summarizes one (word, pattern) posting group: the closed
// ranges of its per-path score terms and the largest per-root path count.
// The streaming executor sums these intervals across a query's keywords to
// bound any subtree score a pattern combination can produce (via
// core.Scorer.TreeUB) before expanding it — the top-k bound pushdown.
type PatternBounds struct {
	// MinLen..MaxSim bound the score terms of every path in the group.
	MinLen, MaxLen int
	MinPR, MaxPR   float64
	MinSim, MaxSim float64
	// MaxRun is max_r |Paths(w, P, r)|: no root contributes more than
	// MaxRun paths, so a root set R yields at most |R|·Π MaxRun_i valid
	// subtrees for a combination of patterns.
	MaxRun int
}

// PatternBounds returns the posting-group summary for (w, p), or false
// when the word has no postings under that pattern.
func (ix *Index) PatternBounds(w text.WordID, p core.PatternID) (PatternBounds, bool) {
	g, ok := ix.Group(w, p)
	if !ok {
		return PatternBounds{}, false
	}
	return g.Bounds(), true
}

// --- Root-first access methods (Figure 4b) ---

// Roots returns the sorted distinct roots that can reach w at all.
func (ix *Index) Roots(w text.WordID) []kg.NodeID {
	wi := ix.word(w)
	if wi == nil {
		return nil
	}
	return wi.roots
}

// PatternsAt returns the patterns following which root r reaches w
// (root-first Patterns(w, r)).
func (ix *Index) PatternsAt(w text.WordID, r kg.NodeID) []core.PatternID {
	wi := ix.word(w)
	if wi == nil {
		return nil
	}
	gi, ok := findRoot(wi.roots, r)
	if !ok {
		return nil
	}
	lo, hi := wi.rgRunStart(gi), wi.rgRunEnd[gi]
	out := make([]core.PatternID, hi-lo)
	copy(out, wi.rfPat[lo:hi])
	return out
}

// NumPathsAt returns |Paths(w, r)| without materializing them
// (Algorithm 4 line 4 computes NR from these counts).
func (ix *Index) NumPathsAt(w text.WordID, r kg.NodeID) int {
	wi := ix.word(w)
	if wi == nil {
		return 0
	}
	gi, ok := findRoot(wi.roots, r)
	if !ok {
		return 0
	}
	return int(wi.rgEnd[gi] - wi.rgStart(gi))
}

// RunsAt appends to dst one PathSet per pattern under which root r reaches
// w (root-first Patterns(w, r) with their Paths(w, r, P)), in pattern
// order. Nothing is appended when r does not reach w.
func (ix *Index) RunsAt(dst []PathSet, w text.WordID, r kg.NodeID) []PathSet {
	wi := ix.word(w)
	if wi == nil {
		return dst
	}
	gi, ok := findRoot(wi.roots, r)
	if !ok {
		return dst
	}
	for k := wi.rgRunStart(gi); k < wi.rgRunEnd[gi]; k++ {
		dst = append(dst, wi.rfRun(k, r))
	}
	return dst
}

// rfRun is the PathSet of root-first run k, which belongs to root r.
func (wi *wordIndex) rfRun(k int32, r kg.NodeID) PathSet {
	return PathSet{wi: wi, pat: wi.rfPat[k], root: r, lo: wi.rfStart(k), hi: wi.rfEnd[k], order: wi.rootOrder}
}

// --- binary searches over the group tables ---

func findTypeGroup(tgs []typeGroup, c kg.TypeID) (typeGroup, bool) {
	i := sort.Search(len(tgs), func(i int) bool { return tgs[i].Type >= c })
	if i == len(tgs) || tgs[i].Type != c {
		return typeGroup{}, false
	}
	return tgs[i], true
}

// findPatGroup locates the group for pattern p, or -1. Groups are sorted
// by (root type, pattern id), so the root type is recovered from the
// pattern.
func findPatGroup(pgs []patGroup, pt *core.PatternTable, p core.PatternID) int {
	rt := pt.Get(p).RootType()
	i := sort.Search(len(pgs), func(i int) bool {
		if pgs[i].RootType != rt {
			return pgs[i].RootType >= rt
		}
		return pgs[i].Pattern >= p
	})
	if i == len(pgs) || pgs[i].Pattern != p {
		return -1
	}
	return i
}

// findRoot locates r in the sorted distinct-root list.
func findRoot(roots []kg.NodeID, r kg.NodeID) (int, bool) {
	i := sort.Search(len(roots), func(i int) bool { return roots[i] >= r })
	if i == len(roots) || roots[i] != r {
		return 0, false
	}
	return i, true
}

// defaultWorkers resolves the worker count.
func defaultWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// uniformPR is the PR vector under Options.UniformPR: every posting keys
// on node 0, which scores 1 (Example 2.4), so no term pool grows.
var uniformPR = []float64{1}

// uniform reports whether postings key on the constant node of uniformPR.
func (o Options) uniform() bool { return o.PageRank == nil && o.UniformPR }

// resolvePageRank picks g's PR vector per Options.
func resolvePageRank(g *kg.Graph, o Options) ([]float64, error) {
	switch {
	case o.PageRank != nil:
		if len(o.PageRank) != g.NumNodes() {
			return nil, fmt.Errorf("index: PageRank vector has %d entries for %d nodes", len(o.PageRank), g.NumNodes())
		}
		return o.PageRank, nil
	case o.UniformPR:
		return uniformPR, nil
	default:
		return rank.PageRank(g, rank.Options{}), nil
	}
}

// bindPR points every word with postings at the vector pr and a fresh PR
// cell: all of them from one slab per index, or (unless all) only those
// without a cell, each its own, so no carried word pins a dead slab.
func bindPR(words []wordIndex, pr []float64, all bool) {
	cell := func(int) *prCell { return new(prCell) }
	if all {
		slab := make([]prCell, len(words))
		cell = func(w int) *prCell { return &slab[w] }
	}
	for w := range words {
		if wi := &words[w]; wi.n > 0 && (all || wi.prc == nil) {
			wi.pr, wi.prc = pr, cell(w)
		}
	}
}

// prBounds returns the word's per-group PR ranges, derived on first call
// from the columns and vector every word sharing the cell shares.
func (wi *wordIndex) prBounds() []prRange {
	wi.prc.once.Do(func() { wi.prc.ranges = unsafe.SliceData(wi.derivePR()) })
	return unsafe.Slice(wi.prc.ranges, len(wi.patGroups))
}

// derivePR computes every pattern group's PR range under wi.pr.
func (wi *wordIndex) derivePR() []prRange {
	out := make([]prRange, len(wi.patGroups))
	for gi := range wi.patGroups {
		pg := &wi.patGroups[gi]
		v := wi.pr[wi.termPool[wi.termRef[pg.Start]].node]
		r := prRange{min: v, max: v}
		for _, ref := range wi.termRef[pg.Start+1 : pg.End] {
			v := wi.pr[wi.termPool[ref].node]
			r.min, r.max = min(r.min, v), max(r.max, v)
		}
		out[gi] = r
	}
	return out
}
