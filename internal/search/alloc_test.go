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
// tuple — with a number: executing a prepared query (enumerate → aggregate
// → rank, SkipTrees) must fit one fixed allocation budget on a small and a
// 12× larger frontier. What remains is per query and per worker: worker
// states, the retained top-k with its keys, scratch growth.
func TestAllocBudgetEnumerate(t *testing.T) {
	const budget = 120 // allocations per execution; measured 72 (LE) and 67 (PE)
	ctx := context.Background()
	opts := Options{K: 5, SkipTrees: true, Workers: 1}
	type size struct{ hubs, fan int }
	var trees [2]int64
	for si, sz := range []size{{30, 2}, {90, 4}} {
		ix, err := index.Build(hubForest(sz.hubs, sz.fan), index.Options{D: 2, UniformPR: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algo{AlgoLE, AlgoPE} {
			prep, err := PrepareQuery(ctx, ix, "alpha beta", algo, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExecutePrepared(ctx, ix, prep, algo, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PatternsFound != 12 || len(res.Patterns) != opts.K {
				t.Fatalf("%v %+v: %d patterns found, %d returned; the corpus should yield 12 and 5",
					algo, sz, res.Stats.PatternsFound, len(res.Patterns))
			}
			trees[si] = res.Stats.TreesFound
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := ExecutePrepared(ctx, ix, prep, algo, opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v hubs=%d fan=%d: %d subtrees, %.0f allocs/execution", algo, sz.hubs, sz.fan, res.Stats.TreesFound, allocs)
			if allocs > budget {
				t.Errorf("%v hubs=%d fan=%d: %.0f allocations per execution, budget %d", algo, sz.hubs, sz.fan, allocs, budget)
			}
		}
	}
	if trees[1] < 10*trees[0] {
		t.Fatalf("the larger corpus has %d subtrees against %d: not a scaling test", trees[1], trees[0])
	}
}
