package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
	"kbtable/internal/text"
)

// referenceFinishWord is finishWord as it was when it sorted with
// comparators, kept verbatim but for its name and its root-first call: the
// oracle of the radix ordering. It sorts one word's flat postings into the
// pattern-first order and transposes them into the columnar layout,
// deriving both views' run and group tables. buf backs the flat entries'
// edge ranges; pr is the index's PR vector.
func referenceFinishWord(wi *wordIndex, flat []flatEntry, buf []kg.EdgeID, patRootType []kg.TypeID, pr []float64) {
	// Pattern-first order: (root type, pattern, root); the pre-sort root
	// order within equal keys is preserved by stability, keeping path
	// enumeration deterministic.
	sort.SliceStable(flat, func(i, j int) bool {
		a, b := &flat[i], &flat[j]
		at, bt := patRootType[a.pattern], patRootType[b.pattern]
		if at != bt {
			return at < bt
		}
		if a.pattern != b.pattern {
			return a.pattern < b.pattern
		}
		return a.root < b.root
	})

	// Transpose into per-entry columns; keep the per-entry pattern/root
	// keys in transient arrays for the run scan and the root-first sort.
	n := len(flat)
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
	pool := make(map[termEntry]uint32)
	for i := range flat {
		fe := &flat[i]
		wi.edgeStart[i] = int32(len(wi.edgeBuf))
		wi.edgeBuf = append(wi.edgeBuf, buf[fe.edgeOff:fe.edgeOff+fe.edgeLen]...)
		if fe.edgeEnd {
			wi.edgeEnds[i>>6] |= 1 << (uint(i) & 63)
		}
		ref, ok := pool[fe.term]
		if !ok {
			ref = uint32(len(wi.termPool))
			pool[fe.term] = ref
			wi.termPool = append(wi.termPool, fe.term)
		}
		wi.termRef[i] = ref
		pats[i] = fe.pattern
		roots[i] = fe.root
	}
	wi.edgeStart[n] = int32(len(wi.edgeBuf))
	wi.termPool = compact(wi.termPool)

	// Scan out the (pattern, root) runs and pattern groups.
	var groupPats []core.PatternID
	var groupRuns []int32 // run count per group
	var runPats []core.PatternID
	var runRoots []kg.NodeID
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
	referenceBuildRootFirst(wi, runPats, runRoots)
}

// referenceBuildRootFirst is buildRootFirst as it was when it sorted with
// a comparator, kept verbatim but for its name. It derives the root-first
// view: the permutation sorted by (root, pattern, position) and its
// per-root / per-(root, pattern) run tables. runPats/runRoots are the per-run keys of the pattern-first run
// partition. Because (root, pattern) is unique per run and entries within
// a run already sit in pattern-first position order, an unstable sort of
// the RUNS reproduces the stable per-entry permutation at a fraction of
// the cost of sorting entries (this is the hot half of a v2 snapshot
// load).
func referenceBuildRootFirst(wi *wordIndex, runPats []core.PatternID, runRoots []kg.NodeID) {
	nRuns := len(runRoots)
	order := make([]int32, nRuns)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if runRoots[a] != runRoots[b] {
			if runRoots[a] < runRoots[b] {
				return -1
			}
			return 1
		}
		if runPats[a] < runPats[b] {
			return -1
		}
		return 1
	})
	wi.rootOrder = make([]int32, wi.n)
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

// wordColumns names every column of a word, for reporting which one
// differs. The PR ranges are the ones Group.Bounds reads, derived through
// the word's cell when it has one.
func wordColumns(wi *wordIndex) map[string]any {
	return map[string]any{
		"n": wi.n, "termRef": wi.termRef, "edgeStart": wi.edgeStart, "edgeEnds": wi.edgeEnds,
		"edgeBuf": wi.edgeBuf, "termPool": wi.termPool, "runEnd": wi.runEnd, "rootBytes": wi.rootBytes,
		"skipRoots": wi.skipRoots, "skipOffs": wi.skipOffs, "skipRun": wi.skipRun, "patGroups": wi.patGroups,
		"prBounds": readPRBounds(wi), "typeGroups": wi.typeGroups, "rootOrder": wi.rootOrder, "roots": wi.roots, "rgEnd": wi.rgEnd,
		"rgRunEnd": wi.rgRunEnd, "rfPat": wi.rfPat, "rfEnd": wi.rfEnd,
	}
}

// readPRBounds returns the PR ranges a read of wi sees: through its cell
// (deriving them if no read has yet), or derived afresh for a word built
// outside an index, which has none.
func readPRBounds(wi *wordIndex) []prRange {
	if wi.prc == nil {
		return wi.derivePR()
	}
	return wi.prBounds()
}

// requireSameColumns fails unless got and want agree column by column,
// positions included. Cells compare by the ranges they yield, so a word
// whose ranges were read and one whose were not are equal when the ranges
// are.
func requireSameColumns(t *testing.T, label string, got, want *wordIndex) {
	t.Helper()
	g0, w0 := *got, *want
	g0.prc, w0.prc = nil, nil
	if reflect.DeepEqual(g0, w0) && reflect.DeepEqual(readPRBounds(got), readPRBounds(want)) {
		return
	}
	g, w := wordColumns(got), wordColumns(want)
	names := make([]string, 0, len(g))
	for name := range g {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !reflect.DeepEqual(g[name], w[name]) {
			t.Fatalf("%s: column %s differs:\n got  %v\n want %v", label, name, g[name], w[name])
		}
	}
	t.Fatalf("%s: words differ outside the named columns", label)
}

// requireReferenceColumns is the positional oracle: every word of ix must
// hold exactly the columns the comparator reference derives from the
// word's own postings — term pool order, bounds, skip tables and the
// root-first permutation included. canonical() sorts by content and
// cannot see an order slip that moves snapshot bytes or PatternEnum's
// walk; this can.
func requireReferenceColumns(t *testing.T, label string, ix *Index) {
	t.Helper()
	patRootType := patternRootTypes(ix.pt)
	for w := range ix.words {
		wi := &ix.words[w]
		if wi.n == 0 {
			continue
		}
		flat, buf := wi.flatten()
		var ref wordIndex
		referenceFinishWord(&ref, flat, buf, patRootType, wi.pr)
		requireSameColumns(t, fmt.Sprintf("%s: word %q", label, ix.dict.Word(text.WordID(w))), wi, &ref)
	}
}

// TestColumnsMatchComparatorReference runs the positional oracle over
// Build at one and four workers, under uniform PR and PageRank, and over
// the index a wire round trip loads. The delta chains of
// TestApplyDeltaMatchesRebuild run it after every step.
func TestColumnsMatchComparatorReference(t *testing.T) {
	corpora := wireCorpora()
	for seed := int64(0); seed < 4; seed++ {
		corpora = append(corpora, struct {
			name string
			g    *kg.Graph
		}{fmt.Sprintf("random%d", seed), randomMutGraph(rand.New(rand.NewSource(seed)))})
	}
	for _, c := range corpora {
		for _, uniform := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/uniform=%v/workers=%d", c.name, uniform, workers)
				ix, err := Build(c.g, Options{D: 3, UniformPR: uniform, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireReferenceColumns(t, label, ix)
				var buf bytes.Buffer
				if err := ix.Encode(&buf); err != nil {
					t.Fatalf("%s: encode: %v", label, err)
				}
				var pr []float64
				if !uniform {
					pr = rank.PageRank(c.g, rank.Options{})
				}
				loaded, err := Load(&buf, c.g, pr)
				if err != nil {
					t.Fatalf("%s: load: %v", label, err)
				}
				requireReferenceColumns(t, label+"/loaded", loaded)
			}
		}
	}
}

// TestStableOrderExtremes checks the radix permutation against a stable
// comparator sort on keys at both ends of the uint32 range (the ranks of
// PatternIDs near math.MaxInt32 and the sign-flipped roots), heavy with
// duplicates, at lengths around the radix's 256 buckets.
func TestStableOrderExtremes(t *testing.T) {
	pool := []uint32{0, 1, 255, 256, 1<<16 - 1, 1 << 16, 1<<31 - 1, 1 << 31, math.MaxUint32 - 1, math.MaxUint32}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 63, 64, 255, 256, 257, 1000} {
		keys := make([]uint32, n)
		for i := range keys {
			if rng.Intn(4) == 0 {
				keys[i] = rng.Uint32()
			} else {
				keys[i] = pool[rng.Intn(len(pool))]
			}
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
		if got := stableOrder(keys); !slices.Equal(got, want) {
			t.Fatalf("n=%d: stableOrder = %v, want %v", n, got, want)
		}
	}
}

// TestPatternRanksExtremeTypes: ranks order by root type, then PatternID,
// with TypeIDs near math.MaxInt32.
func TestPatternRanksExtremeTypes(t *testing.T) {
	patRootType := []kg.TypeID{math.MaxInt32, 0, math.MaxInt32 - 1, math.MaxInt32, 7, 0}
	want := []uint32{4, 0, 3, 5, 2, 1}
	if got := patternRanks(patRootType); !slices.Equal(got, want) {
		t.Fatalf("patternRanks = %v, want %v", got, want)
	}
}

// syntheticPR is the PR vector of syntheticWord's term nodes.
var syntheticPR = []float64{0, 1, 2}

// syntheticWord emits n flat postings root by root in ascending order, as
// the DFS does: roots end just below math.MaxInt32, root types are near
// math.MaxInt32 and 0, each root is reached through several patterns of
// its type with its paths interleaved across them, and most (pattern,
// root) runs hold more than one path.
func syntheticWord(rng *rand.Rand, n int, patRootType []kg.TypeID) ([]flatEntry, []kg.EdgeID) {
	var types []kg.TypeID
	byType := map[kg.TypeID][]core.PatternID{}
	for p, rt := range patRootType {
		if byType[rt] == nil {
			types = append(types, rt)
		}
		byType[rt] = append(byType[rt], core.PatternID(p))
	}
	var flat []flatEntry
	var buf []kg.EdgeID
	root := kg.NodeID(math.MaxInt32 - 1 - n)
	for len(flat) < n {
		root++
		pats := byType[types[rng.Intn(len(types))]]
		for k := 1 + rng.Intn(6); k > 0 && len(flat) < n; k-- {
			edges := rng.Intn(3)
			flat = append(flat, flatEntry{
				pattern: pats[rng.Intn(len(pats))],
				root:    root,
				edgeOff: int32(len(buf)),
				edgeLen: int32(edges),
				edgeEnd: rng.Intn(2) == 0,
				term:    termEntry{len: int32(edges + 1), node: kg.NodeID(rng.Intn(len(syntheticPR))), sim: 0.5},
			})
			for e := 0; e < edges; e++ {
				buf = append(buf, kg.EdgeID(rng.Intn(1000)))
			}
		}
	}
	return flat, buf
}

// TestOrderedFinishMatchesReference: finishWord through patternOrder, and
// through spliceOrder over an old word's survivors plus the fresh entries
// of a random set of dirty roots, both equal the comparator reference's
// finish of the same postings, at entry counts from one to thousands.
func TestOrderedFinishMatchesReference(t *testing.T) {
	patRootType := []kg.TypeID{math.MaxInt32, 0, math.MaxInt32 - 1, math.MaxInt32, 0, math.MaxInt32 - 1, math.MaxInt32, 0}
	rank := patternRanks(patRootType)
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 63, 64, 255, 256, 257, 2000} {
		for trial := 0; trial < 4; trial++ {
			label := fmt.Sprintf("n=%d trial=%d", n, trial)
			flat, buf := syntheticWord(rng, n, patRootType)
			var want wordIndex
			referenceFinishWord(&want, slices.Clone(flat), buf, patRootType, syntheticPR)
			var got wordIndex
			finishWord(&got, flat, patternOrder(flat, rank), buf, patRootType, syntheticPR)
			requireSameColumns(t, label+" build", &got, &want)

			// Splice: the clean roots' postings come back from an old word
			// in its order; the dirty roots' follow in DFS order.
			dirty := map[kg.NodeID]bool{}
			var clean []flatEntry
			for _, e := range flat {
				if _, seen := dirty[e.root]; !seen {
					dirty[e.root] = rng.Intn(3) == 0
				}
				if !dirty[e.root] {
					clean = append(clean, e)
				}
			}
			spliced, sbuf := []flatEntry(nil), []kg.EdgeID(nil)
			if len(clean) > 0 {
				var old wordIndex
				referenceFinishWord(&old, clean, buf, patRootType, syntheticPR)
				spliced, sbuf = old.flatten()
				sbuf = slices.Clone(sbuf)
			}
			surv := len(spliced)
			for _, e := range flat {
				if dirty[e.root] {
					off := int32(len(sbuf))
					sbuf = append(sbuf, buf[e.edgeOff:e.edgeOff+e.edgeLen]...)
					e.edgeOff = off
					spliced = append(spliced, e)
				}
			}
			var sgot wordIndex
			finishWord(&sgot, spliced, spliceOrder(spliced, surv, rank), sbuf, patRootType, syntheticPR)
			requireSameColumns(t, label+" splice", &sgot, &want)
		}
	}
}

// TestBuildRootFirstExtremes: the radix root-first view equals the
// comparator one with PatternIDs near math.MaxInt32, roots at both int32
// extremes, one hub root reached by a run of every pattern, runs of up to
// three paths, and run counts from one to hundreds.
func TestBuildRootFirstExtremes(t *testing.T) {
	roots := []kg.NodeID{math.MinInt32, -1, 0, 1, 255, 256, 1 << 24, math.MaxInt32 - 1, math.MaxInt32}
	hub := kg.NodeID(math.MaxInt32)
	rng := rand.New(rand.NewSource(3))
	for _, nRuns := range []int{1, 63, 64, 255, 256, 257, 700} {
		var runPats []core.PatternID
		var runRoots []kg.NodeID
		var runEnd []int32
		pos := int32(0)
		for pat := core.PatternID(math.MaxInt32 - nRuns); len(runRoots) < nRuns; pat++ {
			for _, r := range roots {
				if len(runRoots) == nRuns {
					break
				}
				if r != hub && rng.Intn(2) == 0 {
					continue
				}
				pos += 1 + int32(rng.Intn(3))
				runPats = append(runPats, pat)
				runRoots = append(runRoots, r)
				runEnd = append(runEnd, pos)
			}
		}
		got := wordIndex{n: pos, runEnd: runEnd}
		want := got
		buildRootFirst(&got, runPats, runRoots)
		referenceBuildRootFirst(&want, runPats, runRoots)
		requireSameColumns(t, fmt.Sprintf("runs=%d", nRuns), &got, &want)
	}
}
