package search

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// The candidate-root frontier of all three algorithms factors into
// independent shards — PATTERNENUM by (root type, first path-pattern
// choice), LINEARENUM-TOPK and the baseline by root type — because every
// tree pattern is aggregated entirely inside one shard: a tree pattern's
// paths share a single root type, and within a shard subtree scores are
// folded in the same order the serial pass uses. Shards therefore produce
// bit-identical pattern scores regardless of scheduling, and the global
// top-k (a total order on score, then content by CompareContent, under
// which distinct patterns never tie) is independent of merge order. That is what lets the parallel path promise
// exact result equivalence with Workers=1 rather than "close enough".

// resolveWorkers maps Options.Workers to an effective pool size:
// 0 (or negative) means GOMAXPROCS, 1 forces the serial path.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// runShards executes n independent shards on a pool of at most `workers`
// goroutines, handing each invocation the worker slot it runs on so shards
// can write into per-worker state without locks. Shards are claimed from an
// atomic counter (work stealing), so skewed shard costs still balance.
// A canceled context stops the pool between shards; the error is returned.
func runShards(ctx context.Context, workers, n int, shard func(worker, i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			shard(0, i)
		}
		// A cancellation that lands inside the final shard (caught only by
		// its pollCancel) must still surface — the parallel path below
		// reports it, and callers discard partial results on error.
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				shard(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// workerState is the lock-free per-worker accumulator: a local bounded
// top-k heap plus local query statistics. Locals are merged into the
// global result after the pool drains; the merge is order-independent
// (distinct patterns differ in content, stats add), so results stay
// deterministic.
type workerState[T any] struct {
	top   *core.TopK[T]
	all   []T              // a scatter leg's items, unranked (top nil)
	paths []core.PatternID // backing store of all's pattern vectors
	stats QueryStats
}

// newWorkerStates allocates one accumulator per worker slot, each top
// breaking score ties by cmp; k = 0 leaves every top nil (a scatter leg's
// workers).
func newWorkerStates[T any](workers, k int, cmp func(a, b T) int) []workerState[T] {
	ws := make([]workerState[T], workers)
	for i := range ws {
		if k != 0 {
			ws[i].top = core.NewTopK(k, cmp)
		}
	}
	return ws
}

// mergeWorkerStates folds every per-worker top-k and stat counter into the
// global accumulators, and returns what the workers listed instead (top
// nil).
func mergeWorkerStates[T any](ws []workerState[T], top *core.TopK[T], stats *QueryStats) []T {
	var all []T
	for i := range ws {
		if top != nil {
			top.Merge(ws[i].top)
		}
		all = append(all, ws[i].all...)
		stats.CandidateRoots += ws[i].stats.CandidateRoots
		stats.SampledRoots += ws[i].stats.SampledRoots
		stats.PatternsFound += ws[i].stats.PatternsFound
		stats.TreesFound += ws[i].stats.TreesFound
		stats.EmptyChecked += ws[i].stats.EmptyChecked
		stats.BoundPruned += ws[i].stats.BoundPruned
	}
	return all
}

// pollCancel is a cheap in-shard cancellation probe: shards poll it inside
// their hot loops so a query dominated by one huge shard still honors the
// caller's timeout, but the context is only consulted every 512th call (a
// context Err can take a lock; per-iteration checks would tax tight loops).
// One instance per shard — it is not safe for concurrent use.
type pollCancel struct {
	ctx      context.Context
	calls    uint32
	canceled bool
}

// hit reports whether the shard should abandon its work. A nil poller
// (callers outside any cancellation scope, e.g. reference tests) never hits.
func (p *pollCancel) hit() bool {
	if p == nil {
		return false
	}
	if p.canceled {
		return true
	}
	p.calls++
	if p.calls&511 == 0 && p.ctx.Err() != nil {
		p.canceled = true
	}
	return p.canceled
}

// typeRNG derives the sampling source for one root type. Both the serial
// and the parallel path seed sampling per type (rather than drawing from
// one stream across types), so the sampled root set of a type does not
// depend on which worker processed the preceding types.
func typeRNG(seed int64, c kg.TypeID) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	mix := uint64(c+1) * 0x9E3779B97F4A7C15 // Fibonacci hashing spreads dense type IDs
	return rand.New(rand.NewSource(seed ^ int64(mix>>1)))
}

// materializeAll fills in the valid subtrees of the ranked patterns,
// fanning the per-pattern materialization across the worker pool (each
// pattern's trees are independent, so slots never contend).
func materializeAll(ctx context.Context, ix *index.Index, words []text.WordID, patterns []RankedPattern, o Options) error {
	workers := resolveWorkers(o.Workers)
	return runShards(ctx, workers, len(patterns), func(_, i int) {
		patterns[i].Trees = materializeTrees(ix, words, patterns[i].Pattern, patterns[i].Agg.Count, o, &pollCancel{ctx: ctx})
	})
}
