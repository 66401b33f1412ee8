package search

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// sameScore reports whether two partials are bit-identical.
func sameScore(a, b core.PatternScore) bool {
	return a.Count == b.Count && math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// TestRootWalkMatchesFold: over random per-keyword runs (1–6 keywords, 1–3
// runs of 1–5 terms each, single-tuple products included) the root walk's
// partial for every pattern combination is bit-identical to tupleWalk.fold
// over that combination's runs, and the walk numbers its slots in the
// order nextCombo visits the combinations: the merge reads slot s as the
// s-th combination. Roots whose combinations outnumber leMaxSlots are
// walked in chunks; one case per scorer is that large.
func TestRootWalkMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scorers := []core.Scorer{core.DefaultScorer(), {Z1: -0.5, Z2: 2, Z3: 0.3}}
	pick := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1 / float64(1+rng.Intn(5))
		}
		return rng.Float64() * math.Pow(10, float64(rng.Intn(9)-6))
	}
	sc := &leScratch{} // one scratch for every trial: buffers are reused across m
	for trial := 0; trial < 600; trial++ {
		s := scorers[trial%len(scorers)]
		o := Options{Scorer: &s}
		m, maxRuns, maxTerms := 1+rng.Intn(6), 3, 5
		if trial < len(scorers) { // 7^5 combinations: more than leMaxSlots
			m, maxRuns, maxTerms = 5, 7, 1
		}
		if trial%50 == 7 { // one tuple in all
			maxRuns, maxTerms = 1, 1
		}
		sc.runs, sc.terms, sc.ends = make([][]index.PathSet, m), make([][]core.ScoreTerms, m), make([][]int, m)
		sc.combo, sc.choice = make([]int, m), make([]core.PatternID, m)
		sc.agg.size(m)
		combos := 1
		for i := 0; i < m; i++ {
			runs := 1 + rng.Intn(maxRuns)
			if trial < len(scorers) {
				runs = maxRuns
			}
			combos *= runs
			sc.runs[i] = make([]index.PathSet, runs)
			for j := 0; j < runs; j++ {
				for n := 1 + rng.Intn(maxTerms); n > 0; n-- {
					sc.terms[i] = append(sc.terms[i], core.ScoreTerms{Len: 1 + rng.Intn(4), PR: pick(), Sim: pick()})
				}
				sc.ends[i] = append(sc.ends[i], len(sc.terms[i]))
			}
		}

		merged, prev := 0, make([]int, m)
		var tw tupleWalk
		for ok := sc.firstCombo(); ok; {
			if !sc.walkRoot(nil, 0, &o, nil) {
				t.Fatalf("trial %d: the walk stopped with no poller", trial)
			}
			for _, local := range sc.locals {
				sc.chosen()
				want := tw.fold(&s, sc.agg.lists, nil, nil)
				if !sameScore(local, want) {
					t.Fatalf("trial %d, combination %v: walk %+v, fold %+v", trial, sc.combo, local, want)
				}
				if merged > 0 && slices.Compare(prev, sc.combo) >= 0 {
					t.Fatalf("trial %d: combination %v merged after %v", trial, sc.combo, prev)
				}
				copy(prev, sc.combo)
				merged++
				ok = sc.nextCombo()
			}
		}
		if merged != combos {
			t.Fatalf("trial %d: the walk filled %d slots for %d combinations", trial, merged, combos)
		}
	}
}

// refExpandRoot is the per-combination fold the root walk replaced: each
// combination of the fetched runs is folded on its own by tupleWalk and
// merged into dict. It is the walk's oracle.
func refExpandRoot(ix *index.Index, words []text.WordID, r kg.NodeID, o *Options, sc *leScratch, dict *leDict, only []map[core.PatternID]bool) {
	if !sc.fetch(ix, words, r, only) {
		return
	}
	for ok := sc.firstCombo(); ok; ok = sc.nextCombo() {
		var de *dictEntry
		if only != nil {
			if de = dict.find(sc.choice); de == nil {
				continue
			}
		}
		sc.chosen()
		local := sc.agg.foldRoot(ix.Graph(), r, o, nil)
		if local.Count == 0 {
			continue
		}
		if de == nil {
			de = dict.entry(sc.choice)
		}
		de.agg.Merge(local)
		if o.CollectRootAggs {
			de.rootAggs = append(de.rootAggs, RootAgg{Root: r, Agg: local})
		}
	}
}

// TestExpandRootMatchesPerCombinationFold runs LINEARENUM's expansion and
// its exact re-score of a selection over real indexes (Figure 1 and a
// synthetic wiki, workload queries) through the root walk and through the
// per-combination fold, and requires the same dictionaries: the same
// patterns in the same insertion order, bit-identical aggregates and
// per-root partials — with and without RequireTreeShape.
func TestExpandRootMatchesPerCombinationFold(t *testing.T) {
	fig1, _ := buildFig1Index(t, 3)
	wg := dataset.SynthWiki(dataset.WikiConfig{Entities: 600, Types: 20, Seed: 3})
	wiki, err := index.Build(wg, index.Options{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ix      *index.Index
		queries []string
	}{{fig1, []string{fig1Query, "database software"}}, {wiki, nil}}
	for _, q := range dataset.Workload(wg, dataset.WorkloadConfig{PerM: 8, MaxM: 4, Seed: 5}) {
		cases[1].queries = append(cases[1].queries, q.Text)
	}
	same := func(got, want *leDict) bool {
		if len(got.entries) != len(want.entries) {
			return false
		}
		for i := range got.entries {
			g, w := &got.entries[i], &want.entries[i]
			if !slices.Equal(g.tp.Paths, w.tp.Paths) || !sameScore(g.agg, w.agg) || len(g.rootAggs) != len(w.rootAggs) {
				return false
			}
			for k := range g.rootAggs {
				if g.rootAggs[k].Root != w.rootAggs[k].Root || !sameScore(g.rootAggs[k].Agg, w.rootAggs[k].Agg) {
					return false
				}
			}
		}
		return true
	}
	walk, ref := &leScratch{}, &leScratch{}
	checked := 0
	var trees [2]int // subtrees aggregated without and with RequireTreeShape
	for si, shape := range []bool{false, true} {
		o := Options{RequireTreeShape: shape, CollectRootAggs: true}.withDefaults()
		pc := &pollCancel{ctx: context.Background()}
		for _, c := range cases {
			for _, q := range c.queries {
				words, _ := ResolveQuery(c.ix.Dict(), q)
				prep, err := prepare(context.Background(), c.ix, words, needRoots)
				if err != nil || !prep.ok {
					continue
				}
				for _, typ := range prep.types {
					roots := prep.byType[typ]
					walk.dict.reset()
					ref.dict.reset()
					walk.rewind(len(words))
					for _, r := range roots {
						expandRoot(c.ix, words, r, &o, pc, walk, &walk.dict, nil)
						refExpandRoot(c.ix, words, r, &o, ref, &ref.dict, nil)
					}
					if !same(&walk.dict, &ref.dict) {
						t.Fatalf("%q type %d, tree shape %v: the walk's dictionary differs from the per-combination fold's", q, typ, shape)
					}
					// Re-score every other pattern, as a sampled type does.
					var selected []*dictEntry
					for i := range walk.dict.entries {
						if i%2 == 0 {
							selected = append(selected, &walk.dict.entries[i])
						}
					}
					got := aggregateSelected(c.ix, words, selected, roots, &o, pc, walk)
					ref.sel.reset()
					only := make([]map[core.PatternID]bool, len(words))
					for i := range only {
						only[i] = map[core.PatternID]bool{}
					}
					for _, de := range selected {
						ref.sel.entry(de.tp.Paths)
						for i, p := range de.tp.Paths {
							only[i][p] = true
						}
					}
					for _, r := range roots {
						refExpandRoot(c.ix, words, r, &o, ref, &ref.sel, only)
					}
					if !same(got, &ref.sel) {
						t.Fatalf("%q type %d, tree shape %v: the walk's selected re-score differs from the per-combination fold's", q, typ, shape)
					}
					checked += len(walk.dict.entries)
					for i := range walk.dict.entries {
						trees[si] += walk.dict.entries[i].agg.Count
					}
				}
			}
		}
	}
	if checked < 100 || trees[1] >= trees[0] {
		t.Fatalf("%d patterns compared, %d subtrees of which %d tree-shaped: the corpora prove too little", checked, trees[0], trees[1])
	}
	t.Logf("%d patterns compared; %d subtrees, %d tree-shaped", checked, trees[0], trees[1])
}
