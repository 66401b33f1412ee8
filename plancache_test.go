package kbtable

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kbtable/internal/search"
)

// The plan-cache / prepared-query property suite. The cache's one
// correctness obligation is that it never serves a stale plan: after any
// update, cached statistics must agree with a cache-bypassing probe of
// the NEW index, and prepared handles must answer exactly the bytes of
// the snapshot they are bound to. These tests drive random accepted
// update chains through both corpora and every shard width and pin those
// properties, plus the deterministic word-precise eviction granularity on
// the Figure 1 KB.

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"database, software; company (revenue)!", "database software company revenue"},
		{"  Foo   BAR  ", "foo bar"},
		{"foo,", "foo"},
		{"foo", "foo"},
		{"US$ 77 billion", "us 77 billion"},
		{"", ""},
		{"!!!", ""},
	}
	for _, c := range cases {
		if got := NormalizeQuery(c.in); got != c.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// probePlanStats recomputes a query's prepare-stage statistics directly
// against the engine's index, bypassing the plan cache — the oracle the
// cached path must always agree with.
func probePlanStats(t *testing.T, e *Engine, q string, opts SearchOptions) search.PlanStats {
	t.Helper()
	st, err := e.sh.PlanStats(context.Background(), q, e.searchOptions(opts), nil)
	if err != nil {
		t.Fatalf("probe %q: %v", q, err)
	}
	return st
}

// cachedPlanStats is the lookup Engine.Plan makes: the plan cache first,
// the in-process probe on a miss.
func cachedPlanStats(ctx context.Context, e *Engine, q string, opts SearchOptions) (search.PlanStats, error) {
	return e.planStats(ctx, q, e.searchOptions(opts), nil)
}

// TestPlanCacheInvalidationProperty drives random accepted update batches
// through engine chains and asserts, after every update: (a) the cached
// statistics for every query equal a cache-bypassing probe of the new
// index, (b) the new chain's answers are byte-identical to a from-scratch
// engine over the same graph, (c) handles prepared on the superseded
// snapshot still answer that snapshot's bytes (snapshot semantics), while
// handles re-prepared on the successor answer the new bytes.
func TestPlanCacheInvalidationProperty(t *testing.T) {
	ctx := context.Background()
	for _, spec := range goldenCorpora() {
		g, name, queries := spec.graph(t), spec.name, spec.queries
		for _, shards := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s/shards=%d", name, shards)
			rng := rand.New(rand.NewSource(int64(1000*len(name) + shards)))
			opts := SearchOptions{K: 10, Algorithm: Auto, MaxRowsPerTable: 6}
			eopts := EngineOptions{D: 3, Shards: shards, UniformPageRank: true}
			e, err := NewEngine(g, eopts)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; step++ {
				// Warm every shape on this snapshot and record its bytes.
				oldBytes := map[string]string{}
				oldPrep := map[string]*PreparedQuery{}
				for _, q := range queries {
					st, err := cachedPlanStats(ctx, e, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if direct := probePlanStats(t, e, q, opts); !reflect.DeepEqual(st, direct) {
						t.Fatalf("%s/step %d/%q: cached stats diverge from probe:\n  cached %+v\n  probe  %+v",
							label, step, q, st, direct)
					}
					ans, _, err := e.SearchPlan(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					oldBytes[q] = renderGolden(q, ans)
					p, err := e.PrepareContext(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					oldPrep[q] = p
				}
				// Repeat lookups on the warm snapshot must hit.
				pre := e.PlanCacheStats()
				if _, err := cachedPlanStats(ctx, e, queries[0], opts); err != nil {
					t.Fatal(err)
				}
				if post := e.PlanCacheStats(); post.Hits <= pre.Hits {
					t.Fatalf("%s/step %d: warm lookup missed (hits %d -> %d)", label, step, pre.Hits, post.Hits)
				}

				epochBefore := e.PlanCacheStats().Epoch
				u := randomBatchAccepted(t, rng, e)
				ne, _, err := e.ApplyUpdate(u)
				if err != nil {
					t.Fatal(err)
				}
				if ep := ne.PlanCacheStats().Epoch; ep <= epochBefore {
					t.Fatalf("%s/step %d: update did not fence the cache (epoch %d -> %d)",
						label, step, epochBefore, ep)
				}
				// From-scratch oracle over the updated graph: no cache,
				// no incremental state.
				fresh, err := NewEngine(ne.Graph(), eopts)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range queries {
					st, err := cachedPlanStats(ctx, ne, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if direct := probePlanStats(t, ne, q, opts); !reflect.DeepEqual(st, direct) {
						t.Fatalf("%s/step %d/%q: post-update cached stats stale:\n  cached %+v\n  probe  %+v",
							label, step, q, st, direct)
					}
					ans, _, err := ne.SearchPlan(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					got := renderGolden(q, ans)
					fa, _, err := fresh.SearchPlan(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if want := renderGolden(q, fa); got != want {
						t.Fatalf("%s/step %d/%q: updated chain diverges from rebuilt engine:\n%s",
							label, step, q, diffHint(want, got))
					}
					// Superseded handles keep answering the superseded
					// snapshot's bytes, exactly like an in-flight search.
					pa, _, err := oldPrep[q].Search(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if renderGolden(q, pa) != oldBytes[q] {
						t.Fatalf("%s/step %d/%q: superseded prepared handle changed its answers", label, step, q)
					}
					// A handle re-prepared on the successor answers the
					// new bytes — never the pre-update plan or answer.
					np, err := ne.PrepareContext(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					na, _, err := np.Search(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if renderGolden(q, na) != got {
						t.Fatalf("%s/step %d/%q: re-prepared handle diverges from fresh search", label, step, q)
					}
				}
				e = ne
			}
		}
	}
}

// TestPlanCacheWordPreciseInvalidation pins the eviction granularity: an
// update's touched words cover the D-neighborhood it changes, so a shape
// over a disconnected region of the KB survives the epoch bump and still
// hits — unrelated repeat traffic keeps skipping the probe — while the
// shape whose words were touched is evicted and must re-probe. Two
// disconnected islands make "unrelated" exact.
func TestPlanCacheWordPreciseInvalidation(t *testing.T) {
	ctx := context.Background()
	b := NewBuilder()
	sql := b.Entity("Software", "SQL Server")
	ms := b.Entity("Company", "Microsoft")
	b.Attr(sql, "Developer", ms)
	acme := b.Entity("Maker", "Acme")
	widget := b.Entity("Product", "Widget")
	b.Attr(widget, "Origin", acme)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := SearchOptions{K: 5, Algorithm: Auto}
	const touchedQ = "acme widget"
	const disjointQ = "sql server microsoft"
	for _, q := range []string{touchedQ, disjointQ} {
		if _, err := cachedPlanStats(ctx, e, q, opts); err != nil {
			t.Fatal(err)
		}
	}

	var u Update
	u.AddTextAttr(int64(acme), "Output", "5 million units")
	ne, res, err := e.ApplyUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScoresRefreshed {
		t.Fatalf("fixture update unexpectedly refreshed scores (flushes everything): %+v", res)
	}
	touched := map[string]struct{}{}
	for _, w := range res.TouchedWords {
		touched[w] = struct{}{}
	}
	overlaps := func(q string) bool {
		for _, w := range ne.QueryWords(q) {
			if _, ok := touched[w]; ok {
				return true
			}
		}
		return false
	}
	if !overlaps(touchedQ) || overlaps(disjointQ) {
		t.Fatalf("fixture update touched %v; want overlap with %q only", res.TouchedWords, touchedQ)
	}
	if st := ne.PlanCacheStats(); st.Invalidated == 0 {
		t.Fatalf("update touching a cached word evicted nothing: %+v", st)
	}

	// The disjoint shape survived the invalidation: hit at the new epoch.
	pre := ne.PlanCacheStats()
	if _, err := cachedPlanStats(ctx, ne, disjointQ, opts); err != nil {
		t.Fatal(err)
	}
	mid := ne.PlanCacheStats()
	if mid.Hits != pre.Hits+1 {
		t.Fatalf("disjoint shape was evicted (hits %d -> %d)", pre.Hits, mid.Hits)
	}
	// The touched shape was evicted: its next lookup must re-probe.
	if _, err := cachedPlanStats(ctx, ne, touchedQ, opts); err != nil {
		t.Fatal(err)
	}
	if post := ne.PlanCacheStats(); post.Misses != mid.Misses+1 {
		t.Fatalf("touched shape served a stale entry (misses %d -> %d)", mid.Misses, post.Misses)
	}
	// The superseded snapshot is fenced out entirely: even the surviving
	// disjoint entry is refused to the old epoch.
	preOld := e.PlanCacheStats()
	if _, err := cachedPlanStats(ctx, e, disjointQ, opts); err != nil {
		t.Fatal(err)
	}
	if post := e.PlanCacheStats(); post.Hits != preOld.Hits {
		t.Fatalf("superseded snapshot hit the post-update cache (hits %d -> %d)", preOld.Hits, post.Hits)
	}
}

// TestPlanCacheFlushOnScoreRefresh: a structural update under real
// PageRank rewrites score terms everywhere, so the whole cache flushes —
// even shapes word-disjoint from the update.
func TestPlanCacheFlushOnScoreRefresh(t *testing.T) {
	ctx := context.Background()
	seed, _ := fig1EngineForUpdate(t)
	e, err := NewEngine(seed.Graph(), EngineOptions{D: 3}) // real PageRank
	if err != nil {
		t.Fatal(err)
	}
	opts := SearchOptions{K: 5, Algorithm: Auto}
	if _, err := cachedPlanStats(ctx, e, "sql server", opts); err != nil {
		t.Fatal(err)
	}
	var u Update
	oracle := u.AddEntity("Company", "Oracle Corp")
	odb := u.AddEntity("Software", "Oracle DB")
	u.AddAttr(odb, "Developer", oracle)
	ne, res, err := e.ApplyUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ScoresRefreshed {
		t.Fatalf("structural update under real PageRank did not refresh scores: %+v", res)
	}
	st := ne.PlanCacheStats()
	if st.Size != 0 {
		t.Fatalf("score refresh left %d cached entries", st.Size)
	}
	if st.Invalidated == 0 {
		t.Fatalf("score refresh invalidated nothing: %+v", st)
	}
	// Word-disjoint or not, the old entry is gone: the lookup re-probes.
	if _, err := cachedPlanStats(ctx, ne, "sql server", opts); err != nil {
		t.Fatal(err)
	}
	if post := ne.PlanCacheStats(); post.Misses <= st.Misses {
		t.Fatalf("post-flush lookup did not re-probe (misses %d -> %d)", st.Misses, post.Misses)
	}
}
