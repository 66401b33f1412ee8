package search

import (
	"math"
	"math/rand"
	"testing"

	"kbtable/internal/core"
)

// refProduct is the obvious product walk the kernel replaces: recurse down
// the keywords, build each tuple, score it with Scorer.Tree. Tuples come
// out in lexicographic order, keyword 0 slowest.
func refProduct(lists [][]core.ScoreTerms, visit func(idx []int, tuple []core.ScoreTerms)) {
	idx, tuple := make([]int, len(lists)), make([]core.ScoreTerms, len(lists))
	var rec func(i int)
	rec = func(i int) {
		if i == len(lists) {
			visit(idx, tuple)
			return
		}
		for k, t := range lists[i] {
			idx[i], tuple[i] = k, t
			rec(i + 1)
		}
	}
	rec(0)
}

// TestTupleWalkMatchesScorerTree: over random per-keyword term lists the
// prefix-sum kernel's per-tuple scores, and the PatternScore it folds, are
// bit-equal to scoring each materialized tuple with Scorer.Tree in product
// order — for m = 1..6, zero PR/Sim terms, empty lists, a tuple filter, and
// non-default exponents (which take math.Pow instead of the fast paths).
func TestTupleWalkMatchesScorerTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scorers := []core.Scorer{core.DefaultScorer(), {Z1: -0.5, Z2: 2, Z3: 0.3}, {Z1: 0, Z2: 1, Z3: -1}, {Z1: 1.5, Z2: -1, Z3: 1}}
	pick := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1 / float64(1+rng.Intn(5))
		}
		return rng.Float64() * math.Pow(10, float64(rng.Intn(9)-6))
	}
	var tw tupleWalk // one walker for every trial: buffers are reused across m
	for trial := 0; trial < 400; trial++ {
		s := scorers[trial%len(scorers)]
		lists := make([][]core.ScoreTerms, 1+rng.Intn(6))
		for i := range lists {
			n := 1 + rng.Intn(4)
			if rng.Intn(40) == 0 {
				n = 0 // an empty list empties the product
			}
			for ; n > 0; n-- {
				lists[i] = append(lists[i], core.ScoreTerms{Len: 1 + rng.Intn(4), PR: pick(), Sim: pick()})
			}
		}
		var keep func(idx []int) bool
		if trial%3 == 0 {
			keep = func(idx []int) bool { return (idx[0]+idx[len(idx)-1])%2 == 0 }
		}

		var want []float64
		var wantAgg core.PatternScore
		refProduct(lists, func(idx []int, tuple []core.ScoreTerms) {
			score := s.Tree(tuple)
			want = append(want, score)
			if keep == nil || keep(idx) {
				wantAgg.Add(score)
			}
		})

		var got []float64
		for ok := tw.start(lists); ok; ok = tw.next() {
			got = append(got, tw.score(&s))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: kernel visited %d tuples, product has %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d tuple %d: kernel score %v (%x) != Scorer.Tree %v (%x)",
					trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		agg := tw.fold(&s, lists, nil, keep)
		if agg.Count != wantAgg.Count || math.Float64bits(agg.Sum) != math.Float64bits(wantAgg.Sum) ||
			math.Float64bits(agg.Max) != math.Float64bits(wantAgg.Max) {
			t.Fatalf("trial %d: kernel fold %+v != reference fold %+v", trial, agg, wantAgg)
		}
	}
}
