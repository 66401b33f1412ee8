package search

import (
	"context"
	"fmt"
	"sort"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
	"kbtable/internal/text"
)

// BaselineIndex is the "proper preprocessing" granted to the
// enumeration–aggregation baseline of Section 2.3: a plain keyword →
// matching-element inverted index (the same footing BANKS-style systems
// assume), but crucially *no* materialized path patterns. Everything
// path-shaped is recomputed online per query.
type BaselineIndex struct {
	g    *kg.Graph
	d    int
	dict *text.Dict
	pr   []float64

	nodeMatches [][]nodeMatch // per canonical word
	attrMatches [][]attrMatch // per canonical word
	edgesByAttr [][]kg.EdgeID // attr -> edges carrying it

	rootFilter func(kg.NodeID) bool // nil = every node may root answers
}

type nodeMatch struct {
	Node kg.NodeID
	Sim  float64
}

type attrMatch struct {
	Attr kg.AttrID
	Sim  float64
}

// BaselineOptions configure baseline preprocessing.
type BaselineOptions struct {
	// D is the height threshold, as for the path index.
	D int
	// PageRank or UniformPR as in index.Options.
	PageRank  []float64
	UniformPR bool
	// Synonyms as in index.Options.
	Synonyms map[string]string
	// RootFilter, when non-nil, restricts candidate roots to nodes it
	// accepts (the shard layer passes its partition's ownership test).
	// Keyword matches anywhere in the graph still count — only the roots
	// of answers are filtered.
	RootFilter func(kg.NodeID) bool
}

// NewBaseline builds the baseline's keyword-match index.
func NewBaseline(g *kg.Graph, opts BaselineOptions) (*BaselineIndex, error) {
	if opts.D < 1 {
		return nil, fmt.Errorf("search: baseline height threshold D must be >= 1, got %d", opts.D)
	}
	pr := opts.PageRank
	if pr == nil {
		if opts.UniformPR {
			pr = rank.Uniform(g)
		} else {
			pr = rank.PageRank(g, rank.Options{})
		}
	}
	if len(pr) != g.NumNodes() {
		return nil, fmt.Errorf("search: PageRank vector has %d entries for %d nodes", len(pr), g.NumNodes())
	}
	b := &BaselineIndex{g: g, d: opts.D, dict: text.NewDict(), pr: pr, rootFilter: opts.RootFilter}
	for alias, canon := range opts.Synonyms {
		b.dict.AddSynonym(alias, canon)
	}

	typeSims := make([][]wordSimPair, g.NumTypes())
	for t := 0; t < g.NumTypes(); t++ {
		if kg.TypeID(t) == kg.LiteralType {
			continue // dummy entities' type is omitted, like the path index
		}
		typeSims[t] = wordSimPairs(b.dict, g.TypeName(kg.TypeID(t)))
	}
	grow := func(w text.WordID) {
		for int(w) >= len(b.nodeMatches) {
			b.nodeMatches = append(b.nodeMatches, nil)
			b.attrMatches = append(b.attrMatches, nil)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		best := map[text.WordID]float64{}
		for _, ws := range wordSimPairs(b.dict, g.Text(kg.NodeID(v))) {
			if ws.Sim > best[ws.Word] {
				best[ws.Word] = ws.Sim
			}
		}
		for _, ws := range typeSims[g.Type(kg.NodeID(v))] {
			if ws.Sim > best[ws.Word] {
				best[ws.Word] = ws.Sim
			}
		}
		for w, sim := range best {
			grow(w)
			b.nodeMatches[w] = append(b.nodeMatches[w], nodeMatch{Node: kg.NodeID(v), Sim: sim})
		}
	}
	for a := 0; a < g.NumAttrs(); a++ {
		for _, ws := range wordSimPairs(b.dict, g.AttrName(kg.AttrID(a))) {
			grow(ws.Word)
			b.attrMatches[ws.Word] = append(b.attrMatches[ws.Word], attrMatch{Attr: kg.AttrID(a), Sim: ws.Sim})
		}
	}
	b.edgesByAttr = make([][]kg.EdgeID, g.NumAttrs())
	for e := 0; e < g.NumEdges(); e++ {
		a := g.Edge(kg.EdgeID(e)).Attr
		b.edgesByAttr[a] = append(b.edgesByAttr[a], kg.EdgeID(e))
	}
	return b, nil
}

// wordSimPair mirrors index.wordSim for the baseline's own dictionary.
type wordSimPair struct {
	Word text.WordID
	Sim  float64
}

func wordSimPairs(d *text.Dict, s string) []wordSimPair {
	toks := text.TokenSet(s)
	if len(toks) == 0 {
		return nil
	}
	sim := 1.0 / float64(len(toks))
	seen := map[text.WordID]struct{}{}
	out := make([]wordSimPair, 0, len(toks))
	for _, t := range toks {
		id := d.Canonical(d.Intern(t))
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, wordSimPair{Word: id, Sim: sim})
	}
	return out
}

// D returns the baseline's height threshold.
func (b *BaselineIndex) D() int { return b.d }

// Graph returns the underlying graph.
func (b *BaselineIndex) Graph() *kg.Graph { return b.g }

// BaselineResult mirrors Result but against the baseline's own pattern
// table (it interns patterns online).
type BaselineResult struct {
	Patterns []RankedPattern
	Table    *core.PatternTable
	Stats    QueryStats
	Plan     Plan
}

// Search runs the enumeration–aggregation approach: (1) adapted backward
// search finds candidate roots that reach every keyword within the height
// bound; (2) per root, paths to keyword matches are enumerated online and
// their products grouped by tree pattern in a full in-memory dictionary;
// (3) the dictionary is ranked. The group-by dictionary over *all* patterns
// and subtrees is the bottleneck the paper describes.
func (b *BaselineIndex) Search(query string, opts Options) *BaselineResult {
	res, _ := b.SearchCtx(context.Background(), query, opts)
	return res
}

// SearchCtx is Search with cancellation. Candidate roots are grouped by
// type and the groups sharded across the worker pool configured by
// Options.Workers; a tree pattern's subtrees all root at nodes of one type,
// so each pattern aggregates entirely inside one shard in serial root order
// and the parallel run returns exactly the serial results (the online
// pattern table interns concurrently, so interned IDs — never exposed
// content — may differ across runs).
func (b *BaselineIndex) SearchCtx(ctx context.Context, query string, opts Options) (*BaselineResult, error) {
	start := time.Now()
	o := opts.withDefaults()
	pt := core.NewPatternTable()
	stats := QueryStats{}
	plan := Plan{Algo: AlgoBaseline}
	top := core.NewTopK[*baselineEntry](o.K)

	// Prepare stage: resolve keywords against the baseline dictionary (it
	// has no prebuilt path postings; backward search below is its posting
	// lookup, so it counts toward prepare too).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	raw, surf := b.dict.QueryTokens(query)
	var words []text.WordID
	seen := map[text.WordID]bool{}
	for i, id := range raw {
		if id != text.NoWord && seen[id] {
			continue
		}
		seen[id] = true
		words = append(words, id)
		stats.Surfaces = append(stats.Surfaces, surf[i])
	}
	stats.Words = words
	empty := func() (*BaselineResult, error) {
		stats.Stages.Prepare = time.Since(start)
		stats.Elapsed = time.Since(start)
		return &BaselineResult{Table: pt, Stats: stats, Plan: plan}, nil
	}
	if len(words) == 0 || len(words) > 16 {
		// The backward-search bitmask supports up to 16 distinct keywords;
		// the paper's workloads use at most 10.
		return empty()
	}
	for _, w := range words {
		if w == text.NoWord || int(w) >= len(b.nodeMatches) ||
			(len(b.nodeMatches[w]) == 0 && len(b.attrMatches[w]) == 0) {
			return empty()
		}
	}

	// Step 1: backward search. dist_i(v) = fewest edges from v to a match
	// of word i (edge matches charge one edge for the matched edge itself).
	candidates := b.backward(words)
	stats.CandidateRoots = len(candidates)
	plan.Stats.CandidateRoots = len(candidates)
	stats.Stages.Prepare = time.Since(start)

	// Step 2 (enumerate stage): online enumeration + aggregation, one
	// dictionary per root type (backward returns roots in node order, so
	// each group keeps the serial order and per-pattern aggregation is
	// bit-identical).
	tEnum := time.Now()
	byType := map[kg.TypeID][]kg.NodeID{}
	for _, r := range candidates {
		byType[b.g.Type(r)] = append(byType[b.g.Type(r)], r)
	}
	types := make([]kg.TypeID, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })

	workers := resolveWorkers(o.Workers)
	ws := newWorkerStates[*baselineEntry](workers, o.K)
	err := runShards(ctx, workers, len(types), func(worker, ti int) {
		st := &ws[worker].stats
		pc := &pollCancel{ctx: ctx}
		treeDict := map[string]*baselineEntry{}
		for _, r := range byType[types[ti]] {
			if pc.hit() {
				return
			}
			lists := b.onlinePaths(words, r, pt)
			ok := true
			for _, l := range lists {
				if len(l) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			b.expandOnline(words, r, lists, o, pt, treeDict)
		}
		// Step 3 per shard: rank the dictionary.
		st.PatternsFound += len(treeDict)
		for _, de := range treeDict {
			st.TreesFound += int64(de.agg.Count)
			ws[worker].top.OfferFunc(de.agg.Value(o.Agg), func() string { return de.tp.ContentKey(pt) }, de)
		}
	})
	stats.Stages.Enumerate = time.Since(tEnum)
	tAgg := time.Now()
	mergeWorkerStates(ws, top, &stats)
	stats.Stages.Aggregate = time.Since(tAgg)
	if err != nil {
		return nil, err
	}
	tRank := time.Now()
	var patterns []RankedPattern
	for _, de := range top.Results() {
		rp := RankedPattern{Pattern: de.tp, Agg: de.agg, Score: de.agg.Value(o.Agg), RootAggs: de.rootAggs}
		if !o.SkipTrees {
			rp.Trees = de.trees
		}
		patterns = append(patterns, rp)
	}
	stats.Stages.Rank = time.Since(tRank)
	stats.Elapsed = time.Since(start)
	return &BaselineResult{Patterns: patterns, Table: pt, Stats: stats, Plan: plan}, nil
}

// baselineEntry is a TreeDict slot: the paper's baseline keeps every valid
// subtree of every pattern in memory, which is exactly its bottleneck.
type baselineEntry struct {
	tp       core.TreePattern
	agg      core.PatternScore
	trees    []core.Subtree
	rootAggs []RootAgg // per-root partials, kept under CollectRootAggs
}

// backward runs one multi-source reverse BFS per keyword and intersects
// the "reaches within d-1 edges" sets.
func (b *BaselineIndex) backward(words []text.WordID) []kg.NodeID {
	n := b.g.NumNodes()
	reach := make([]uint16, n) // bitmask per word; m <= 16 enforced by caller size
	var queue []kg.NodeID
	for i, w := range words {
		bit := uint16(1) << uint(i)
		dist := make([]int32, n)
		for j := range dist {
			dist[j] = -1
		}
		queue = queue[:0]
		for _, m := range b.nodeMatches[w] {
			if dist[m.Node] < 0 {
				dist[m.Node] = 0
				queue = append(queue, m.Node)
			}
		}
		// Edge matches: the edge source reaches the keyword in one edge.
		for _, am := range b.attrMatches[w] {
			for _, eid := range b.edgesByAttr[am.Attr] {
				src := b.g.Edge(eid).Src
				if dist[src] < 0 {
					dist[src] = 1
					queue = append(queue, src)
				}
			}
		}
		budget := int32(b.d - 1)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] >= budget {
				continue
			}
			for _, eid := range b.g.InEdgeIDs(v) {
				u := b.g.Edge(eid).Src
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for v := 0; v < n; v++ {
			if dist[v] >= 0 && dist[v] <= budget {
				reach[v] |= bit
			}
		}
	}
	all := uint16(1)<<uint(len(words)) - 1
	var out []kg.NodeID
	for v := 0; v < n; v++ {
		if reach[v] == all && (b.rootFilter == nil || b.rootFilter(kg.NodeID(v))) {
			out = append(out, kg.NodeID(v))
		}
	}
	return out
}

// onlinePaths enumerates, by DFS from r, every simple path of at most d-1
// edges ending at a node or edge matching each keyword — the per-query work
// the path index precomputes offline.
func (b *BaselineIndex) onlinePaths(words []text.WordID, r kg.NodeID, pt *core.PatternTable) [][]patternedPath {
	m := len(words)
	out := make([][]patternedPath, m)
	nodeSim := make([]map[kg.NodeID]float64, m)
	attrSim := make([]map[kg.AttrID]float64, m)
	for i, w := range words {
		nodeSim[i] = map[kg.NodeID]float64{}
		for _, nm := range b.nodeMatches[w] {
			nodeSim[i][nm.Node] = nm.Sim
		}
		attrSim[i] = map[kg.AttrID]float64{}
		for _, am := range b.attrMatches[w] {
			attrSim[i][am.Attr] = am.Sim
		}
	}

	var edges []kg.EdgeID
	types := []kg.TypeID{b.g.Type(r)}
	var attrs []kg.AttrID
	onPath := map[kg.NodeID]bool{r: true}

	snapshot := func(edgeEnd bool) (core.Path, core.PatternID) {
		p := core.Path{Root: r, Edges: append([]kg.EdgeID(nil), edges...), EdgeEnd: edgeEnd}
		pid := pt.Intern(core.PathPattern{
			Types:   append([]kg.TypeID(nil), types...),
			Attrs:   append([]kg.AttrID(nil), attrs...),
			EdgeEnd: edgeEnd,
		})
		return p, pid
	}

	var visit func(v kg.NodeID)
	visit = func(v kg.NodeID) {
		for i := range words {
			if sim, ok := nodeSim[i][v]; ok {
				p, pid := snapshot(false)
				out[i] = append(out[i], patternedPath{
					path: p, terms: core.ScoreTerms{Len: len(edges) + 1, PR: b.pr[v], Sim: sim}, pid: pid,
				})
			}
		}
		if len(edges) >= b.d-1 {
			return
		}
		first, n := b.g.OutEdges(v)
		for k := 0; k < n; k++ {
			eid := first + kg.EdgeID(k)
			e := b.g.Edge(eid)
			if onPath[e.Dst] {
				continue
			}
			matched := false
			for i := range words {
				if _, ok := attrSim[i][e.Attr]; ok {
					matched = true
					break
				}
			}
			if matched {
				edges = append(edges, eid)
				attrs = append(attrs, e.Attr)
				for i := range words {
					if sim, ok := attrSim[i][e.Attr]; ok {
						p, pid := snapshot(true)
						out[i] = append(out[i], patternedPath{
							path: p, terms: core.ScoreTerms{Len: len(edges) + 1, PR: b.pr[v], Sim: sim}, pid: pid,
						})
					}
				}
				edges = edges[:len(edges)-1]
				attrs = attrs[:len(attrs)-1]
			}
			edges = append(edges, eid)
			attrs = append(attrs, e.Attr)
			types = append(types, b.g.Type(e.Dst))
			onPath[e.Dst] = true
			visit(e.Dst)
			onPath[e.Dst] = false
			types = types[:len(types)-1]
			attrs = attrs[:len(attrs)-1]
			edges = edges[:len(edges)-1]
		}
	}
	visit(r)
	return out
}

// patternedPath is a concrete path with its score terms and its
// online-interned pattern.
type patternedPath struct {
	path  core.Path
	terms core.ScoreTerms
	pid   core.PatternID
}

// expandOnline products the per-keyword path lists of one root and folds
// each tuple into the dictionary under its tree pattern. Subtree scores
// fold into per-(pattern, root) partials that merge into the dictionary at
// the end of the root's expansion — the same two-level fold as
// aggregatePattern, so baseline scores are bit-identical to PE/LE and to
// the re-folded shard gather.
func (b *BaselineIndex) expandOnline(words []text.WordID, r kg.NodeID, lists [][]patternedPath, o Options, pt *core.PatternTable, treeDict map[string]*baselineEntry) {
	m := len(words)
	choice := make([]core.PatternID, m)
	paths := make([]core.Path, m)
	terms := make([]core.ScoreTerms, m)
	locals := map[string]*core.PatternScore{}
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			if o.RequireTreeShape {
				st := core.Subtree{Root: r, Paths: paths}
				if !st.IsTreeShaped(b.g) {
					return
				}
			}
			tp := core.TreePattern{Paths: choice}
			key := tp.Key()
			de, ok := treeDict[key]
			if !ok {
				de = &baselineEntry{tp: core.TreePattern{Paths: append([]core.PatternID(nil), choice...)}}
				treeDict[key] = de
			}
			local, ok := locals[key]
			if !ok {
				local = &core.PatternScore{}
				locals[key] = local
			}
			local.Add(o.Scorer.Tree(terms))
			if o.MaxTreesPerPattern == 0 || len(de.trees) < o.MaxTreesPerPattern {
				de.trees = append(de.trees, core.Subtree{
					Root:  r,
					Paths: append([]core.Path(nil), paths...),
					Terms: append([]core.ScoreTerms(nil), terms...),
				})
			}
			return
		}
		for _, pp := range lists[i] {
			choice[i] = pp.pid
			paths[i] = pp.path
			terms[i] = pp.terms
			rec(i + 1)
		}
	}
	rec(0)
	for key, local := range locals {
		de := treeDict[key]
		de.agg.Merge(*local)
		if o.CollectRootAggs {
			de.rootAggs = append(de.rootAggs, RootAgg{Root: r, Agg: *local})
		}
	}
}
