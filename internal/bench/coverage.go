package bench

import (
	"fmt"
	"strings"

	"kbtable/internal/core"
	"kbtable/internal/search"
)

// RunFig13 reproduces Figure 13 / Section 5.3: the average coverage of the
// individual top-k valid subtrees inside the top-k tree patterns, and the
// fraction of top-k tree patterns that are "new" (contain no individual
// top-k subtree), for k = 10..100.
func RunFig13(e *Env) Table {
	ix := e.WikiIndex(3)
	t := Table{
		Title:  "Figure 13: individual top-k subtrees vs top-k tree patterns (SynthWiki, d=3)",
		Header: []string{"k", "queries", "coverage %", "new patterns %"},
	}
	// Individual-tree ranking enumerates every subtree, so skip explosive
	// queries like the paper skips nothing at 96GB — we cap for laptops.
	const maxTrees = 500_000
	cs := costs(e, ix, e.WikiQueries())
	var eligible []queryCost
	for _, c := range cs {
		if c.patterns > 0 && c.trees <= maxTrees {
			eligible = append(eligible, c)
		}
	}
	const kMax = 100
	type perQuery struct {
		patternKeys []string // top-kMax pattern keys, ranked
		treePattern []string // pattern key of each top-kMax tree, ranked
	}
	var pqs []perQuery
	for _, c := range eligible {
		res := search.LETopK(ix, c.q.Text, search.Options{K: kMax, SkipTrees: true})
		words, surfaces := search.ResolveQuery(ix.Dict(), c.q.Text)
		trees, _ := search.TopTrees(ix, words, surfaces, kMax, search.Options{})
		var pq perQuery
		for _, rp := range res.Patterns {
			pq.patternKeys = append(pq.patternKeys, rp.Pattern.ContentKey(ix.PatternTable()))
		}
		for _, rt := range trees {
			pq.treePattern = append(pq.treePattern, rt.Pattern.ContentKey(ix.PatternTable()))
		}
		pqs = append(pqs, pq)
	}
	for k := 10; k <= kMax; k += 10 {
		var covSum, newSum float64
		n := 0
		for _, pq := range pqs {
			np := len(pq.patternKeys)
			if np > k {
				np = k
			}
			nt := len(pq.treePattern)
			if nt > k {
				nt = k
			}
			if np == 0 || nt == 0 {
				continue
			}
			topPat := map[string]bool{}
			for _, key := range pq.patternKeys[:np] {
				topPat[key] = true
			}
			covered := 0
			coveredPat := map[string]bool{}
			for _, key := range pq.treePattern[:nt] {
				if topPat[key] {
					covered++
					coveredPat[key] = true
				}
			}
			covSum += float64(covered) / float64(nt)
			newSum += float64(np-len(coveredPat)) / float64(np)
			n++
		}
		if n == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", 100*covSum/float64(n)),
			fmt.Sprintf("%.1f", 100*newSum/float64(n)),
		})
	}
	t.Notes = append(t.Notes,
		"coverage %: average fraction of the individual top-k subtrees whose pattern is among the top-k tree patterns",
		"new patterns %: average fraction of top-k tree patterns containing no individual top-k subtree")
	return t
}

// RunCaseStudy reproduces the Figures 14-15 case study: the top individual
// valid subtrees versus the top-1 tree pattern (table answer) for one
// query, showing why aggregated patterns answer "list of X" intents better.
func RunCaseStudy(e *Env, query string) string {
	ix := e.WikiIndex(3)
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Case study (Figures 14-15): query %q ==\n\n", query)

	words, surfaces := search.ResolveQuery(ix.Dict(), query)
	trees, _ := search.TopTrees(ix, words, surfaces, 3, search.Options{})
	fmt.Fprintf(&sb, "-- Top individual valid subtrees (Figure 14 analogue) --\n")
	if len(trees) == 0 {
		sb.WriteString("(no valid subtrees)\n")
		return sb.String()
	}
	for i, rt := range trees {
		tab := core.ComposeTable(ix.Graph(), ix.PatternTable(), rt.Pattern, []core.Subtree{rt.Tree})
		fmt.Fprintf(&sb, "Top-%d (score %.4f)\n%s\n", i+1, rt.Score, tab.Render(1))
	}

	res := search.LETopK(ix, query, search.Options{K: 1, MaxTreesPerPattern: 10})
	fmt.Fprintf(&sb, "-- Top-1 tree pattern as table answer (Figure 15 analogue) --\n")
	if len(res.Patterns) == 0 {
		sb.WriteString("(no patterns)\n")
		return sb.String()
	}
	rp := res.Patterns[0]
	fmt.Fprintf(&sb, "score %.4f, %d rows\n%s\n", rp.Score, rp.Agg.Count, rp.Table(ix).Render(10))
	return sb.String()
}
