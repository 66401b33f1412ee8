package bench

import (
	"fmt"

	"kbtable/internal/core"
	"kbtable/internal/search"
)

// RunAblations reports the effect of design choices the paper leaves
// open, beyond what it measured:
//
//   - tuple semantics vs strict tree-shape filtering (how many "subtrees"
//     are re-converging tuples, and what filtering costs);
//   - the four pattern-score aggregation functions (how much the ranking
//     changes, and that runtime does not);
//   - PETopK's empty-combination pruning (combinations checked vs found).
func RunAblations(e *Env) []Table {
	ix := e.WikiIndex(3)
	cs := costs(e, ix, e.WikiQueries())
	var qs []queryCost
	for _, c := range cs {
		if !c.exceeded && c.patterns > 0 {
			qs = append(qs, c)
			if len(qs) == 30 {
				break
			}
		}
	}

	// (1) Tree-shape filtering.
	shape := Table{
		Title:  "Ablation: tuple semantics vs strict tree-shape filtering (LETopK, 30 queries)",
		Header: []string{"mode", "geo time (ms)", "total subtrees", "total patterns"},
	}
	for _, strict := range []bool{false, true} {
		var tm timing
		var trees int64
		patterns := 0
		for _, c := range qs {
			res := search.LETopK(ix, c.q.Text, search.Options{K: e.Cfg.K, SkipTrees: true, RequireTreeShape: strict})
			tm.add(res.Stats.Elapsed)
			trees += res.Stats.TreesFound
			patterns += res.Stats.PatternsFound
		}
		mode := "tuples (paper)"
		if strict {
			mode = "strict trees"
		}
		shape.Rows = append(shape.Rows, []string{
			mode, fmt.Sprintf("%.2f", tm.geoMs()), fmt.Sprintf("%d", trees), fmt.Sprintf("%d", patterns),
		})
	}
	shape.Notes = append(shape.Notes,
		"strict mode drops path tuples whose union re-converges (diamonds); the gap shows how many of the paper's counted subtrees are such tuples")

	// (2) Aggregation functions.
	agg := Table{
		Title:  "Ablation: pattern-score aggregation functions (PETopK, 30 queries)",
		Header: []string{"agg", "geo time (ms)", "top-10 overlap with sum"},
	}
	baseline := map[string][]string{}
	for _, c := range qs {
		res := search.PETopK(ix, c.q.Text, search.Options{K: 10, SkipTrees: true, Agg: core.AggSum})
		var keys []string
		for _, rp := range res.Patterns {
			keys = append(keys, rp.Pattern.ContentKey(ix.PatternTable()))
		}
		baseline[c.q.Text] = keys
	}
	for _, a := range []core.Agg{core.AggSum, core.AggCount, core.AggAvg, core.AggMax} {
		var tm timing
		overlapSum, overlapN := 0.0, 0
		for _, c := range qs {
			res := search.PETopK(ix, c.q.Text, search.Options{K: 10, SkipTrees: true, Agg: a})
			tm.add(res.Stats.Elapsed)
			base := baseline[c.q.Text]
			if len(base) == 0 {
				continue
			}
			set := map[string]bool{}
			for _, k := range base {
				set[k] = true
			}
			hit := 0
			for _, rp := range res.Patterns {
				if set[rp.Pattern.ContentKey(ix.PatternTable())] {
					hit++
				}
			}
			overlapSum += float64(hit) / float64(len(base))
			overlapN++
		}
		overlap := 1.0
		if overlapN > 0 {
			overlap = overlapSum / float64(overlapN)
		}
		agg.Rows = append(agg.Rows, []string{
			a.String(), fmt.Sprintf("%.2f", tm.geoMs()), fmt.Sprintf("%.2f", overlap),
		})
	}
	agg.Notes = append(agg.Notes,
		"sum and count favor subtree-rich patterns; avg and max favor individually strong subtrees — runtime is agg-independent (Section 2.2.3)")

	// (3) PETopK empty-combination accounting.
	prune := Table{
		Title:  "Ablation: PETopK combination pruning (30 queries)",
		Header: []string{"metric", "total"},
	}
	var found, empty int64
	for _, c := range qs {
		res := search.PETopK(ix, c.q.Text, search.Options{K: e.Cfg.K, SkipTrees: true})
		found += int64(res.Stats.PatternsFound)
		empty += res.Stats.EmptyChecked
	}
	prune.Rows = append(prune.Rows,
		[]string{"non-empty patterns scored", fmt.Sprintf("%d", found)},
		[]string{"empty prefixes pruned", fmt.Sprintf("%d", empty)},
	)
	prune.Notes = append(prune.Notes,
		"each pruned prefix cuts an entire subtree of the combination product — the wasted set-intersections of Section 4.1's worst case")

	return []Table{shape, agg, prune}
}
