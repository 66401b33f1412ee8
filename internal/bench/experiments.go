package bench

import (
	"context"
	"fmt"
	"time"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
)

// queryCost caches the grouping statistics of one workload query.
type queryCost struct {
	q        dataset.Query
	patterns int
	trees    int64
	exceeded bool // more subtrees than Config.SkipOver: excluded from runs
}

// costs computes CountAllCapped for every query once per index. Queries
// whose subtree count exceeds the budget are marked and later skipped:
// exact enumeration on them is the paper's 10^6-ms regime (Figure 7, d=4),
// out of budget for a laptop suite.
func costs(e *Env, ix *index.Index, qs []dataset.Query) []queryCost {
	out := make([]queryCost, 0, len(qs))
	for _, q := range qs {
		p, t, ex := search.CountAllCapped(ix, q.Text, e.Cfg.SkipOver)
		out = append(out, queryCost{q: q, patterns: p, trees: t, exceeded: ex})
	}
	return out
}

// timedRun measures one algorithm on one query. The returned duration is
// the search's self-reported elapsed time (excludes grouping bookkeeping).
func (e *Env) timedRun(ix *index.Index, bl *search.BaselineIndex, algo string, q string) time.Duration {
	opts := search.Options{K: e.Cfg.K, SkipTrees: true}
	switch algo {
	case "Baseline":
		opts.MaxTreesPerPattern = e.Cfg.BaselineTreeCap
		res := bl.Search(q, opts)
		return res.Stats.Elapsed
	case "LETopK":
		res := search.LETopK(ix, q, opts)
		return res.Stats.Elapsed
	case "PETopK":
		res := search.PETopK(ix, q, opts)
		return res.Stats.Elapsed
	}
	panic("unknown algorithm " + algo)
}

// RunFig6 reproduces Figure 6: index construction time and size on Wiki
// for each height threshold d.
func RunFig6(e *Env) Table {
	t := Table{
		Title:  "Figure 6: index construction cost on SynthWiki for different d",
		Header: []string{"d", "Time (s)", "Size (MB)", "Entries", "Patterns"},
	}
	for _, d := range e.Cfg.Ds {
		// Rebuild (not cached) so the time is honest even if the env has
		// already built this index for another experiment.
		ix, err := index.Build(e.Wiki(), index.Options{D: d})
		if err != nil {
			panic(err)
		}
		s := ix.Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%.2f", s.BuildTime.Seconds()),
			fmt.Sprintf("%.1f", float64(s.Bytes)/(1<<20)),
			fmt.Sprintf("%d", s.NumEntries),
			fmt.Sprintf("%d", s.NumPatterns),
		})
	}
	g := e.Wiki().Stats()
	t.Notes = append(t.Notes, fmt.Sprintf("SynthWiki: %d nodes, %d edges, %d types", g.Nodes, g.Edges, g.Types))
	return t
}

// autoPick is the algorithm the Auto planner resolves q to on ix.
func autoPick(ix *index.Index, q string) search.Algo {
	words, _ := search.ResolveQuery(ix.Dict(), q)
	st, err := search.PlanProbe(context.Background(), ix, words, search.Options{})
	if err != nil {
		panic(err)
	}
	return search.ChoosePlan(search.AlgoAuto, st).Algo
}

// timeByBucket is the shared engine of Figures 7, 8 and 9: run the three
// algorithms on every query, group by the decade bucket of the chosen
// count, and report min/geo-avg/max execution time per group, plus the
// Auto planner's regret against the faster of PE and LE.
func (e *Env) timeByBucket(ix *index.Index, bl *search.BaselineIndex, cs []queryCost, by func(queryCost) int64) map[int64]*algoSet {
	groups := map[int64]*algoSet{}
	for _, c := range cs {
		if c.exceeded {
			continue
		}
		b := bucketOf(by(c))
		if b == 0 {
			continue // no answers; the paper's x-axes start at 10
		}
		gset, ok := groups[b]
		if !ok {
			gset = &algoSet{}
			groups[b] = gset
		}
		if c.trees <= e.Cfg.SkipBaselineOver {
			gset.baseline.add(e.timedRun(ix, bl, "Baseline", c.q.Text))
		}
		le := e.timedRun(ix, bl, "LETopK", c.q.Text)
		pe := e.timedRun(ix, bl, "PETopK", c.q.Text)
		gset.letopk.add(le)
		gset.petopk.add(pe)
		gset.auto.add(autoPick(ix, c.q.Text), le, pe)
	}
	return groups
}

func bucketTable(title string, xlabel string, groups map[int64]*algoSet) Table {
	t := Table{
		Title:  title,
		Header: []string{xlabel, "queries", "Baseline (min/geo/max)", "LETopK (min/geo/max)", "PETopK (min/geo/max)", "Auto regret"},
	}
	var total regret
	for _, b := range sortedBuckets(groups) {
		gset := groups[b]
		t.Rows = append(t.Rows, []string{
			bucketLabel(b),
			fmt.Sprintf("%d", gset.petopk.n()),
			gset.baseline.minGeoMax(),
			gset.letopk.minGeoMax(),
			gset.petopk.minGeoMax(),
			gset.auto.String(),
		})
		total.picked += gset.auto.picked
		total.best += gset.auto.best
	}
	t.Notes = append(t.Notes, "Auto regret = Σ t(Auto's pick) / Σ min(t_PE, t_LE); all buckets: "+total.String())
	return t
}

// RunFig7 reproduces Figure 7: execution time vs number of tree patterns
// on Wiki, one table per height threshold d.
func RunFig7(e *Env) []Table {
	var out []Table
	for _, d := range e.Cfg.Ds {
		ix := e.WikiIndex(d)
		bl := e.WikiBaseline(d)
		cs := costs(e, ix, e.WikiQueries())
		groups := e.timeByBucket(ix, bl, cs, func(c queryCost) int64 { return int64(c.patterns) })
		out = append(out, bucketTable(
			fmt.Sprintf("Figure 7 (d=%d): execution time vs #tree patterns, SynthWiki", d),
			"#patterns", groups))
	}
	return out
}

// RunFig8 reproduces Figure 8: execution time vs number of tree patterns
// on IMDB at d=3.
func RunFig8(e *Env) Table {
	ix := e.IMDBIndex()
	bl := e.IMDBBaseline()
	cs := costs(e, ix, e.IMDBQueries())
	groups := e.timeByBucket(ix, bl, cs, func(c queryCost) int64 { return int64(c.patterns) })
	return bucketTable("Figure 8 (d=3): execution time vs #tree patterns, SynthIMDB", "#patterns", groups)
}

// RunFig9 reproduces Figure 9: execution time vs number of valid subtrees
// on Wiki (a) and IMDB (b), d=3.
func RunFig9(e *Env) []Table {
	ixW := e.WikiIndex(3)
	blW := e.WikiBaseline(3)
	csW := costs(e, ixW, e.WikiQueries())
	gW := e.timeByBucket(ixW, blW, csW, func(c queryCost) int64 { return c.trees })

	ixI := e.IMDBIndex()
	blI := e.IMDBBaseline()
	csI := costs(e, ixI, e.IMDBQueries())
	gI := e.timeByBucket(ixI, blI, csI, func(c queryCost) int64 { return c.trees })

	return []Table{
		bucketTable("Figure 9(a): execution time vs #valid subtrees, SynthWiki (d=3)", "#subtrees", gW),
		bucketTable("Figure 9(b): execution time vs #valid subtrees, SynthIMDB (d=3)", "#subtrees", gI),
	}
}

// RunFig10 reproduces Figure 10 / Exp-III: execution time on induced
// subgraphs of 10%..100% of the Wiki entities (d=3), geo-averaged over the
// workload.
func RunFig10(e *Env) Table {
	t := Table{
		Title:  "Figure 10: execution time vs knowledge-graph size (SynthWiki, d=3)",
		Header: []string{"entities", "Baseline geo(ms)", "LETopK geo(ms)", "PETopK geo(ms)"},
	}
	qs := e.WikiQueries()
	full := e.Wiki()
	for pct := 10; pct <= 100; pct += 10 {
		var g *kg.Graph
		if pct == 100 {
			g = full
		} else {
			sub := dataset.RandomEntitySubset(full, float64(pct)/100, e.Cfg.Seed)
			g, _ = kg.Induce(full, sub)
		}
		ix, err := index.Build(g, index.Options{D: 3})
		if err != nil {
			panic(err)
		}
		bl, err := search.NewBaseline(g, search.BaselineOptions{D: 3})
		if err != nil {
			panic(err)
		}
		var tb, tl, tp timing
		for _, q := range qs {
			_, trees, ex := search.CountAllCapped(ix, q.Text, e.Cfg.SkipOver)
			if ex {
				continue
			}
			if trees <= e.Cfg.SkipBaselineOver {
				tb.add(e.timedRun(ix, bl, "Baseline", q.Text))
			}
			tl.add(e.timedRun(ix, bl, "LETopK", q.Text))
			tp.add(e.timedRun(ix, bl, "PETopK", q.Text))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d%%", pct),
			fmt.Sprintf("%.2f", tb.geoMs()),
			fmt.Sprintf("%.2f", tl.geoMs()),
			fmt.Sprintf("%.2f", tp.geoMs()),
		})
	}
	return t
}

// RunExpK reproduces Exp-IV: the value of k has very little impact on
// execution time (top-k maintenance is O(log k) per pattern).
func RunExpK(e *Env) Table {
	t := Table{
		Title:  "Exp-IV: execution time vs k (SynthWiki, d=3)",
		Header: []string{"k", "LETopK geo(ms)", "PETopK geo(ms)"},
	}
	ix := e.WikiIndex(3)
	qs := e.WikiQueries()
	for _, k := range []int{1, 10, 100, 1000} {
		var tl, tp timing
		for _, q := range qs {
			res := search.LETopK(ix, q.Text, search.Options{K: k, SkipTrees: true})
			tl.add(res.Stats.Elapsed)
			res = search.PETopK(ix, q.Text, search.Options{K: k, SkipTrees: true})
			tp.add(res.Stats.Elapsed)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.2f", tl.geoMs()),
			fmt.Sprintf("%.2f", tp.geoMs()),
		})
	}
	return t
}

// RunFig16 reproduces Figure 16 / Exp-A-I: execution time for queries with
// different numbers of keywords (performance must not deteriorate with m).
func RunFig16(e *Env) Table {
	t := Table{
		Title:  "Figure 16: execution time vs number of keywords (SynthWiki, d=3)",
		Header: []string{"m", "queries", "Baseline (min/geo/max)", "LETopK (min/geo/max)", "PETopK (min/geo/max)"},
	}
	ix := e.WikiIndex(3)
	bl := e.WikiBaseline(3)
	byM := map[int]*algoSet{}
	for _, q := range e.WikiQueries() {
		gset, ok := byM[q.M]
		if !ok {
			gset = &algoSet{}
			byM[q.M] = gset
		}
		_, trees, ex := search.CountAllCapped(ix, q.Text, e.Cfg.SkipOver)
		if ex {
			continue
		}
		if trees <= e.Cfg.SkipBaselineOver {
			gset.baseline.add(e.timedRun(ix, bl, "Baseline", q.Text))
		}
		gset.letopk.add(e.timedRun(ix, bl, "LETopK", q.Text))
		gset.petopk.add(e.timedRun(ix, bl, "PETopK", q.Text))
	}
	for m := 1; m <= e.Cfg.MaxM; m++ {
		gset, ok := byM[m]
		if !ok {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", gset.petopk.n()),
			gset.baseline.minGeoMax(),
			gset.letopk.minGeoMax(),
			gset.petopk.minGeoMax(),
		})
	}
	return t
}
