//go:build !race

package search

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
)

// TestLEScratchPoolChurn counts the LINEARENUM scratches the pool builds
// anew (a counting leScratchPool.New) over passes of a workload-shaped
// query list after a warm-up pass, on one and two Ps, with the collector
// off and with a forced collection every ten queries. On one P with no
// collection a pass builds none: every Get finds what a Put left. The
// other cells are logged. Measured (go1.24, 2 vCPU): none is built on
// either P count without a collection; with one every ten queries, none
// on one P and 6–12 per 300 queries on two, where a collection moves the
// pool to its victim cache and a scratch left in the other P's private
// slot, which a Get cannot take, is dropped at the next. (The race
// detector drops pooled items at random, hence !race.)
func TestLEScratchPoolChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2,000-entity wiki")
	}
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 2000, Types: 30, Seed: 1})
	ix, err := index.Build(g, index.Options{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, q := range dataset.Workload(g, dataset.WorkloadConfig{PerM: 20, MaxM: 5, Seed: 2}) {
		queries = append(queries, q.Text)
	}
	var built atomic.Int64
	defer func(n func() any) { leScratchPool.New = n }(leScratchPool.New)
	leScratchPool.New = func() any { built.Add(1); return new(leScratch) }

	ctx := context.Background()
	pass := func(gcEvery int) {
		for i, q := range queries {
			if gcEvery > 0 && i%gcEvery == 0 {
				runtime.GC()
			}
			words, surfaces := ResolveQuery(ix.Dict(), q)
			if _, err := Execute(ctx, ix, words, surfaces, AlgoAuto, Options{K: 10, MaxTreesPerPattern: 50, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		for _, gcEvery := range []int{0, 10} {
			runtime.GOMAXPROCS(procs)
			pass(0) // warm the pool
			built.Store(0)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const passes = 3
			for range passes {
				pass(gcEvery)
			}
			runtime.ReadMemStats(&after)
			t.Logf("GOMAXPROCS %d, a collection every %d queries: %d scratches built over %d passes of %d queries, %d collections",
				procs, gcEvery, built.Load(), passes, len(queries), after.NumGC-before.NumGC)
			if procs == 1 && gcEvery == 0 && built.Load() != 0 {
				t.Errorf("one P, no collection: %d scratches built after the warm-up pass, want 0", built.Load())
			}
		}
	}
}
