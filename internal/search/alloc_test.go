//go:build !race

package search

import (
	"context"
	"fmt"
	"testing"

	"kbtable/internal/index"
	"kbtable/internal/kg"
)

// The race detector changes allocation counts, so the allocation budgets
// live behind !race; CI runs them in a plain `go test -run Alloc` step.

// hubForest builds `hubs` hub entities over three hub types, each with
// `fan` leaves per keyword under each of two attributes. "alpha beta" then
// has `hubs` candidate roots, 4·fan² valid subtrees under every one of
// them, and 12 tree patterns however large hubs and fan get: the
// enumeration units (roots, tuples) scale, the answer does not.
func hubForest(hubs, fan int) *kg.Graph {
	b := kg.NewBuilder()
	for h := 0; h < hubs; h++ {
		hub := b.Entity(fmt.Sprintf("Hub%d", h%3), fmt.Sprintf("hub %d", h))
		for _, w := range []string{"alpha", "beta"} {
			for _, attr := range []string{"has", "owns"} {
				for i := 0; i < fan; i++ {
					b.Attr(hub, attr, b.Entity("Leaf", fmt.Sprintf("%s %d", w, i)))
				}
			}
		}
	}
	return b.MustFreeze()
}

// TestAllocBudgetEnumerate backs the claims in query.go and stream.go —
// nothing is allocated per (pattern, root), per root expansion or per
// tuple — with numbers: one query through Execute (prepare → enumerate →
// aggregate → rank, SkipTrees) must fit an absolute budget on a small
// frontier and on a 12× larger one, and the larger may cost at most
// maxGrowth allocations more. What remains is per query and per worker:
// keyword resolution and posting lookups, PATTERNENUM's per-(type, word)
// prelude, Auto's planner statistics, worker states, the retained top-k
// with its keys, scratch growth. Measured (go1.24, small → large): LE
// 101 → 104, PE 161 → 163, Auto 190 → 195; the large corpus has 60 more
// roots, so one allocation per root alone would break maxGrowth.
func TestAllocBudgetEnumerate(t *testing.T) {
	const (
		budget    = 240 // allocations per query
		maxGrowth = 16  // large minus small, per algorithm
	)
	ctx := context.Background()
	opts := Options{K: 5, SkipTrees: true, Workers: 1}
	type size struct{ hubs, fan int }
	var trees [2]int64
	var allocs [2]map[Algo]float64
	for si, sz := range []size{{30, 2}, {90, 4}} {
		ix, err := index.Build(hubForest(sz.hubs, sz.fan), index.Options{D: 2, UniformPR: true})
		if err != nil {
			t.Fatal(err)
		}
		allocs[si] = map[Algo]float64{}
		for _, algo := range []Algo{AlgoLE, AlgoPE, AlgoAuto} {
			res, err := Execute(ctx, ix, "alpha beta", algo, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PatternsFound != 12 || len(res.Patterns) != opts.K {
				t.Fatalf("%v %+v: %d patterns found, %d returned; the corpus should yield 12 and 5",
					algo, sz, res.Stats.PatternsFound, len(res.Patterns))
			}
			trees[si] = res.Stats.TreesFound
			n := testing.AllocsPerRun(20, func() {
				if _, err := Execute(ctx, ix, "alpha beta", algo, opts); err != nil {
					t.Fatal(err)
				}
			})
			allocs[si][algo] = n
			t.Logf("%v hubs=%d fan=%d: %d subtrees, %.0f allocs/query", algo, sz.hubs, sz.fan, res.Stats.TreesFound, n)
			if n > budget {
				t.Errorf("%v hubs=%d fan=%d: %.0f allocations per query, budget %d", algo, sz.hubs, sz.fan, n, budget)
			}
		}
	}
	if trees[1] < 10*trees[0] {
		t.Fatalf("the larger corpus has %d subtrees against %d: not a scaling test", trees[1], trees[0])
	}
	for algo, small := range allocs[0] {
		if grew := allocs[1][algo] - small; grew > maxGrowth {
			t.Errorf("%v: %.0f more allocations on the %d× larger frontier (%.0f → %.0f), at most %d",
				algo, grew, trees[1]/trees[0], small, allocs[1][algo], maxGrowth)
		}
	}
}
