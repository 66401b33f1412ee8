//go:build !race

package search

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"kbtable/internal/index"
	"kbtable/internal/kg"
)

// The race detector changes allocation counts, so the allocation budgets
// live behind !race; CI runs them in a plain `go test -run Alloc` step.

// hubForest builds `hubs` hub entities over three hub types, each linked
// under each of two attributes to the same `fan` leaves per keyword. "alpha
// beta" then has `hubs` candidate roots, 4·fan² valid subtrees under every
// one of them, and 12 tree patterns however large hubs and fan get: the
// enumeration units (roots, tuples) scale, the answer does not. The leaves
// are shared, so a keyword's root list grows by fan, not by hubs·fan.
func hubForest(hubs, fan int) *kg.Graph {
	b := kg.NewBuilder()
	leaves := map[string][]kg.NodeID{}
	for _, w := range []string{"alpha", "beta"} {
		for i := 0; i < fan; i++ {
			leaves[w] = append(leaves[w], b.Entity("Leaf", fmt.Sprintf("%s %d", w, i)))
		}
	}
	for h := 0; h < hubs; h++ {
		hub := b.Entity(fmt.Sprintf("Hub%d", h%3), fmt.Sprintf("hub %d", h))
		for _, w := range []string{"alpha", "beta"} {
			for _, attr := range []string{"has", "owns"} {
				for _, leaf := range leaves[w] {
					b.Attr(hub, attr, leaf)
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
// prelude, Auto's planner statistics, worker states, the retained top-k,
// PATTERNENUM's scratch growth (LINEARENUM's scratch is pooled across
// queries). Measured (go1.24, small → large): LE 62 → 65, PE 151 → 153,
// Auto 79 → 83; the large corpus has 60 more roots, so one allocation per
// root alone would break maxGrowth.
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

// TestAllocBytesLEScratch holds LINEARENUM's scratch to its lifetime: it
// is pooled across queries (leScratchPool), so once one query has grown
// it, a query whose roots carry 16× the paths and 256× the subtrees
// allocates no more bytes than a small one plus a constant. The forests
// share their hub count, so the candidate roots — what prepare copies and
// partitions per query — are the same; before pooling, the regrown runs,
// term arena and dictionaries cost ~3 KB more on the larger one (go1.24).
func TestAllocBytesLEScratch(t *testing.T) {
	const slack = 512 // bytes per query
	ctx := context.Background()
	opts := Options{K: 5, SkipTrees: true, Workers: 1}
	var bytes [2]uint64
	for si, fan := range []int{2, 32} {
		ix, err := index.Build(hubForest(30, fan), index.Options{D: 2, UniformPR: true})
		if err != nil {
			t.Fatal(err)
		}
		bytes[si] = bytesPerRun(20, func() {
			if _, err := Execute(ctx, ix, "alpha beta", AlgoLE, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("LETopK hubs=30 fan=%d: %d B/query", fan, bytes[si])
	}
	if bytes[1] > bytes[0]+slack {
		t.Errorf("LETopK allocates %d B per query on the 16× fan, %d B on the small one: more than %d B apart, so scratch regrowth scales with the frontier",
			bytes[1], bytes[0], slack)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after one warm-up call, on a single P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
