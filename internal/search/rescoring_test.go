package search

import (
	"math"
	"math/rand"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// TestAggregateSelectedMatchesPerPatternRescoring checks that the batched
// one-pass exact re-scoring (aggregateSelected) agrees with the per-pattern
// reference (aggregatePatternRF) on random graphs — the two
// implementations of Algorithm 4 line 11.
func TestAggregateSelectedMatchesPerPatternRescoring(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		g := randomGraph(rng)
		ix, err := index.Build(g, index.Options{D: 3, UniformPR: true})
		if err != nil {
			t.Fatal(err)
		}
		words, _ := ResolveQuery(ix, "alpha beta")
		if !queryable(ix, words) {
			continue
		}
		o := Options{}.withDefaults()

		// Collect all patterns and candidate roots via a full expansion.
		rootLists := make([][]kg.NodeID, len(words))
		for i, w := range words {
			rootLists[i] = ix.Roots(w)
		}
		roots := intersectSorted(nil, rootLists...)
		sc := &leScratch{}
		sc.dict.reset()
		for _, r := range roots {
			expandRoot(ix, words, r, &o, nil, sc, &sc.dict, nil)
		}
		if len(sc.dict.entries) == 0 {
			continue
		}
		var selected []*dictEntry
		for i := range sc.dict.entries {
			selected = append(selected, &sc.dict.entries[i])
		}

		batched := aggregateSelected(ix, words, selected, roots, &o, nil, sc)
		for _, de := range selected {
			ref := aggregatePatternRF(ix, words, de.tp, roots, &o)
			got := batched.find(de.tp.Paths)
			if got == nil {
				t.Fatalf("seed %d: pattern missing from batched result", seed)
			}
			if got.agg.Count != ref.Count || math.Abs(got.agg.Sum-ref.Sum) > 1e-9 || got.agg.Max != ref.Max {
				t.Fatalf("seed %d: batched %+v != reference %+v", seed, got.agg, ref)
			}
			// Both must also equal the expansion-time accumulation.
			if got.agg.Count != de.agg.Count || math.Abs(got.agg.Sum-de.agg.Sum) > 1e-9 {
				t.Fatalf("seed %d: re-scoring disagrees with expansion: %+v vs %+v", seed, got.agg, de.agg)
			}
		}
	}
}

// TestSamplingNeverInventsPatterns: every pattern a sampled run returns
// must exist in the exhaustive pattern set with exactly the reported score.
func TestSamplingNeverInventsPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng)
	ix, err := index.Build(g, index.Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	exact := PETopK(ix, "alpha beta", Options{K: 1 << 20, SkipTrees: true})
	truth := map[string]float64{}
	for _, rp := range exact.Patterns {
		truth[rp.Pattern.ContentKey(ix.PatternTable())] = rp.Score
	}
	for s := int64(0); s < 10; s++ {
		res := LETopK(ix, "alpha beta", Options{K: 10, Lambda: 1, Rho: 0.4, Seed: s + 1, SkipTrees: true})
		for _, rp := range res.Patterns {
			want, ok := truth[rp.Pattern.ContentKey(ix.PatternTable())]
			if !ok {
				t.Fatalf("seed %d: sampled run invented a pattern", s)
			}
			if math.Abs(rp.Score-want) > 1e-9 {
				t.Fatalf("seed %d: sampled survivor score %v != exact %v", s, rp.Score, want)
			}
		}
	}
}

// TestSamplingAggModes: estimated ranking + exact re-scoring must stay
// consistent under every aggregation function.
func TestSamplingAggModes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng)
	ix, err := index.Build(g, index.Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []core.Agg{core.AggSum, core.AggCount, core.AggAvg, core.AggMax} {
		exact := PETopK(ix, "alpha", Options{K: 1 << 20, SkipTrees: true, Agg: agg})
		truth := map[string]float64{}
		for _, rp := range exact.Patterns {
			truth[rp.Pattern.ContentKey(ix.PatternTable())] = rp.Score
		}
		res := LETopK(ix, "alpha", Options{K: 5, Lambda: 1, Rho: 0.5, Seed: 3, SkipTrees: true, Agg: agg})
		for _, rp := range res.Patterns {
			want, ok := truth[rp.Pattern.ContentKey(ix.PatternTable())]
			if !ok || math.Abs(rp.Score-want) > 1e-9 {
				t.Fatalf("agg=%v: survivor score %v, want %v (found=%v)", agg, rp.Score, want, ok)
			}
		}
	}
}

// aggregatePatternRF exactly scores pattern tp over the given roots using
// the root-first index — the per-pattern re-scoring reference. The
// fold is two-level like every aggregation site (see aggregatePattern).
func aggregatePatternRF(ix *index.Index, words []text.WordID, tp core.TreePattern, roots []kg.NodeID, o *Options) core.PatternScore {
	var agg core.PatternScore
	var sc aggScratch
	sc.size(len(words))
nextRoot:
	for _, r := range roots {
		for i, w := range words {
			sc.lists[i] = sc.lists[i][:0]
			for _, ps := range ix.RunsAt(nil, w, r) { // root-first Paths(w, r, P)
				if ps.Pattern() == tp.Paths[i] {
					sc.sets[i] = ps
					sc.lists[i] = ps.AppendTerms(sc.lists[i])
				}
			}
			if len(sc.lists[i]) == 0 {
				continue nextRoot
			}
		}
		if local := sc.foldRoot(ix.Graph(), r, o, nil); local.Count > 0 {
			agg.Merge(local)
		}
	}
	return agg
}
