package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
)

// equalRanked asserts two results rank identical patterns with
// bit-identical scores, aggregates and trees. Work counters are NOT
// compared: the bound pushdown legitimately skips enumeration units an
// unpruned run counts (BoundPruned accounts for them), so only the
// answers must match.
func equalRanked(t *testing.T, label string, ix *index.Index, a, b *Result) {
	t.Helper()
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("%s: %d patterns vs %d", label, len(a.Patterns), len(b.Patterns))
	}
	pt := ix.PatternTable()
	for i := range a.Patterns {
		ap, bp := a.Patterns[i], b.Patterns[i]
		if ap.Score != bp.Score {
			t.Errorf("%s: rank %d score %v != %v", label, i, ap.Score, bp.Score)
		}
		if ap.Pattern.ContentKey(pt) != bp.Pattern.ContentKey(pt) {
			t.Errorf("%s: rank %d pattern content differs", label, i)
		}
		if ap.Agg != bp.Agg {
			t.Errorf("%s: rank %d aggregate %+v != %+v", label, i, ap.Agg, bp.Agg)
		}
		if !reflect.DeepEqual(ap.Trees, bp.Trees) {
			t.Errorf("%s: rank %d materialized trees differ", label, i)
		}
		if !reflect.DeepEqual(ap.RootAggs, bp.RootAggs) {
			t.Errorf("%s: rank %d root decompositions differ", label, i)
		}
	}
}

// equalToBaseline asserts res ranks the baseline's patterns in the
// baseline's order with the same subtree counts and scores. The baseline
// is an independent implementation (online backward search, its own
// pattern table, its own fold order), so patterns are matched by content
// and scores to a relative 1e-9.
func equalToBaseline(t *testing.T, label string, ix *index.Index, res *Result, bl *BaselineResult) {
	t.Helper()
	if len(res.Patterns) != len(bl.Patterns) {
		t.Fatalf("%s: %d patterns vs baseline's %d", label, len(res.Patterns), len(bl.Patterns))
	}
	pt := ix.PatternTable()
	for i := range res.Patterns {
		rp, bp := res.Patterns[i], bl.Patterns[i]
		if rp.Pattern.ContentKey(pt) != bp.Pattern.ContentKey(bl.Table) {
			t.Errorf("%s: rank %d pattern differs from the baseline's", label, i)
		}
		if rp.Agg.Count != bp.Agg.Count {
			t.Errorf("%s: rank %d aggregates %d subtrees, baseline %d", label, i, rp.Agg.Count, bp.Agg.Count)
		}
		if math.Abs(rp.Score-bp.Score) > 1e-9*math.Max(1, math.Abs(bp.Score)) {
			t.Errorf("%s: rank %d score %v, baseline %v", label, i, rp.Score, bp.Score)
		}
	}
}

// unboundedK is a K no answer set reaches: the top-k heap never fills, so
// the bound pushdown never has a k-th score to prune against and the run
// enumerates everything.
const unboundedK = 1 << 30

// TestBoundPushdownNeverChangesTheAnswer is the streaming executor's core
// guarantee: for every algorithm, worker count and query, a small-K run —
// where the bound pushdown fires — returns exactly the first K answers of
// the same executor's unpruned run, and the answers the independent
// baseline ranks. The CollectRootAggs round exercises the same fetch
// paths with pruning switched off by the executor itself.
func TestBoundPushdownNeverChangesTheAnswer(t *testing.T) {
	const k = 5
	for _, tc := range synthCases(t) {
		ix, err := index.Build(tc.g, index.Options{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewBaseline(tc.g, BaselineOptions{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tc.queries {
			want, err := bl.SearchCtx(context.Background(), q, Options{K: k, SkipTrees: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []Algo{AlgoPE, AlgoLE, AlgoAuto} {
				for _, workers := range []int{1, 4} {
					for _, collect := range []bool{false, true} {
						opts := Options{K: k, Workers: workers, CollectRootAggs: collect}
						all := opts
						all.K = unboundedK
						full, err := executeQuery(context.Background(), ix, q, algo, all)
						if err != nil {
							t.Fatal(err)
						}
						topk, err := executeQuery(context.Background(), ix, q, algo, opts)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s/%v/w=%d/collect=%v/%q", tc.name, algo, workers, collect, q)
						if full.Stats.BoundPruned != 0 {
							t.Errorf("%s: unbounded run reports BoundPruned=%d", label, full.Stats.BoundPruned)
						}
						if collect && topk.Stats.BoundPruned != 0 {
							t.Errorf("%s: pruning fired under CollectRootAggs", label)
						}
						prefix := *full
						prefix.Patterns = full.Patterns[:min(k, len(full.Patterns))]
						equalRanked(t, label, ix, &prefix, topk)
						equalToBaseline(t, label, ix, topk, want)
					}
				}
			}
		}
	}
}

// TestTopTreesBoundPushdownNeverChangesTheAnswer: individual-tree ranking
// under the per-root bound pushdown returns exactly the first k trees of
// its own unpruned run, and its TreesFound still reports the full
// enumerated frontier (pruned roots credit their exact subtree count).
func TestTopTreesBoundPushdownNeverChangesTheAnswer(t *testing.T) {
	for _, tc := range synthCases(t) {
		ix, err := index.Build(tc.g, index.Options{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tc.queries {
			full, fullStats := topTrees(ix, q, unboundedK, Options{})
			if fullStats.BoundPruned != 0 {
				t.Errorf("%s/%q: unbounded run reports BoundPruned=%d", tc.name, q, fullStats.BoundPruned)
			}
			for _, k := range []int{1, 5} {
				trees, stats := topTrees(ix, q, k, Options{})
				label := fmt.Sprintf("%s/k=%d/%q", tc.name, k, q)
				if !reflect.DeepEqual(full[:min(k, len(full))], trees) {
					t.Errorf("%s: top-k trees differ from the unpruned run's first k", label)
				}
				if fullStats.TreesFound != stats.TreesFound {
					t.Errorf("%s: TreesFound %d != unpruned %d (pruned-root credit broken)",
						label, stats.TreesFound, fullStats.TreesFound)
				}
			}
		}
	}
}

// TestStreamingPruningFires guards against the bound pushdown silently
// degrading into a no-op: across a realistic workload at small K, at
// least some enumeration units must actually be pruned (each individually
// verified sound by the equivalence tests above).
func TestStreamingPruningFires(t *testing.T) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 1500, Types: 40})
	ix, err := index.Build(g, index.Options{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	var pePruned, ttPruned int64
	for _, q := range dataset.Workload(g, dataset.WorkloadConfig{PerM: 3, MaxM: 4}) {
		res, err := executeQuery(context.Background(), ix, q.Text, AlgoPE, Options{K: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pePruned += res.Stats.BoundPruned
		_, stats := topTrees(ix, q.Text, 2, Options{})
		ttPruned += stats.BoundPruned
	}
	if pePruned == 0 {
		t.Errorf("PATTERNENUM bound pushdown never fired across the workload")
	}
	if ttPruned == 0 {
		t.Errorf("TopTrees bound pushdown never fired across the workload")
	}
}

// starGraph builds a worst-case single-root product: one hub entity whose
// subtree contains `fan` children per keyword, each child matching exactly
// one keyword through the same attribute (so each keyword contributes one
// pattern with `fan` paths). The query "alpha beta gamma" then has ONE
// candidate root, ONE pattern combination, and fan^3 valid subtrees — all
// cancellation opportunities the pre-streaming executor had (between
// shards, roots and patterns) collapse, leaving only the per-tuple poll
// inside the product kernel (tupleWalk.fold).
func starGraph(fan int) *kg.Graph {
	b := kg.NewBuilder()
	hub := b.Entity("Hub", "hub")
	for _, w := range []string{"alpha", "beta", "gamma"} {
		for i := 0; i < fan; i++ {
			b.Attr(hub, "has", b.Entity("Leaf", fmt.Sprintf("%s %d", w, i)))
		}
	}
	return b.MustFreeze()
}

// TestCancellationInsideProduct pins the satellite fix: a query canceled
// in the middle of one enormous path product must return promptly with
// context.Canceled instead of enumerating ~10^8 remaining tuples to
// completion (and, through the serial runShards bug this PR also fixes,
// returning a truncated result with a nil error).
func TestCancellationInsideProduct(t *testing.T) {
	g := starGraph(500) // 500^3 = 1.25e8 tuples under the single root
	ix, err := index.Build(g, index.Options{D: 2, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algo{AlgoPE, AlgoLE} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(25*time.Millisecond, cancel)
		start := time.Now()
		_, err := executeQuery(ctx, ix, "alpha beta gamma", algo, Options{K: 5, Workers: 1})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled (after %v)", algo, err, elapsed)
		}
	}
}

// TestPeLeafUBIsSound cross-checks the PATTERNENUM leaf bound against the
// exact aggregates on real corpora: for every enumerated combination, the
// envelope bound must dominate the exact pattern aggregate.
func TestPeLeafUBIsSound(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	words, _ := ResolveQuery(ix.Dict(), fig1Query)
	for _, agg := range []core.Agg{core.AggSum, core.AggCount, core.AggAvg, core.AggMax} {
		o := Options{Agg: agg}.withDefaults()
		res, err := executeQuery(context.Background(), ix, fig1Query, AlgoPE, Options{K: 100, Agg: agg, CollectRootAggs: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, rp := range res.Patterns {
			bounds := make([]index.PatternBounds, len(words))
			for i, w := range words {
				b, ok := ix.PatternBounds(w, rp.Pattern.Paths[i])
				if !ok {
					t.Fatalf("agg=%v: ranked pattern lacks bounds", agg)
				}
				bounds[i] = b
			}
			nRoots := len(rp.RootAggs)
			if ub := peLeafUB(bounds, nRoots, &o); ub < rp.Score {
				t.Errorf("agg=%v: peLeafUB=%v < exact score %v", agg, ub, rp.Score)
			}
		}
	}

	// Float folds that exceed the correctly rounded product n·t: fifteen
	// subtrees of 2.5/3 (a pattern tied at the k-th score on a random KB,
	// which PATTERNENUM pruned), and six of 0.7. Each is one root holding
	// n paths of one keyword, all with the same score terms.
	for _, c := range []struct {
		n, len  int
		pr, sim float64
	}{{15, 3, 2.5, 1}, {6, 1, 0.7, 1}} {
		b := []index.PatternBounds{{MinLen: c.len, MaxLen: c.len, MinPR: c.pr, MaxPR: c.pr, MinSim: c.sim, MaxSim: c.sim, MaxRun: c.n}}
		tree := core.DefaultScorer().FromSums(c.len, c.pr, c.sim)
		var fold core.PatternScore
		for range c.n {
			fold.Add(tree)
		}
		if fold.Sum <= float64(c.n)*tree {
			t.Fatalf("%d×%v folds to %v, not above the product %v: the case no longer exercises rounding", c.n, tree, fold.Sum, float64(c.n)*tree)
		}
		for _, agg := range []core.Agg{core.AggSum, core.AggAvg} {
			o := Options{Agg: agg}.withDefaults()
			if ub := peLeafUB(b, 1, &o); ub < fold.Value(agg) {
				t.Errorf("agg=%v, %d×%v: peLeafUB=%v < float fold %v", agg, c.n, tree, ub, fold.Value(agg))
			}
		}
	}
}

// TestRootTreeUBIsSound holds TopTrees' per-root bound to every subtree
// it bounds, on Figure 1 and on a synthetic wiki under real PageRank. The
// bound is on one subtree's score, whose term sums fold in the same
// keyword order as the bound's, so it needs no fold slack.
func TestRootTreeUBIsSound(t *testing.T) {
	fig1, _ := buildFig1Index(t, 3)
	wg := dataset.SynthWiki(dataset.WikiConfig{Entities: 600, Types: 20, Seed: 3})
	wiki, err := index.Build(wg, index.Options{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ix      *index.Index
		queries []string
	}{{fig1, []string{fig1Query}}, {wiki, nil}}
	for _, q := range dataset.Workload(wg, dataset.WorkloadConfig{PerM: 2, MaxM: 3, Seed: 3}) {
		cases[1].queries = append(cases[1].queries, q.Text)
	}
	o := Options{}.withDefaults()
	checked := 0
	for _, c := range cases {
		for _, q := range c.queries {
			words, _ := ResolveQuery(c.ix.Dict(), q)
			trees, _ := topTrees(c.ix, q, 10000, Options{})
			at := make([]int, len(words)) // the roots come in rank order: cursors step back too
			for _, rt := range trees {
				ub, _, ok := rootTreeUB(c.ix, words, rt.Tree.Root, o, at)
				if ok && ub < rt.Score {
					t.Fatalf("%q root %d: rootTreeUB=%v < tree score %v", q, rt.Tree.Root, ub, rt.Score)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no subtree checked")
	}
}
