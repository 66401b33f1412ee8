package kbtable

// One testing.B benchmark per table/figure of the paper (Figures 6-16,
// Exp-IV), wrapping the drivers in internal/bench at a reduced scale so
// `go test -bench=.` completes on a laptop, plus micro-benchmarks of the
// individual components and ablation benches for design choices the
// paper leaves open (tuple vs tree-shape semantics, the aggregation
// function, index workers, the height threshold). cmd/kbbench runs the
// full-scale suite.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"kbtable/internal/bench"
	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
	"kbtable/internal/search"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *bench.Env
)

// env returns the shared reduced-scale experiment environment.
func env() *bench.Env {
	benchEnvOnce.Do(func() {
		benchEnv = bench.NewEnv(bench.Config{
			WikiEntities: 4000,
			WikiTypes:    60,
			IMDBMovies:   1500,
			PerM:         5,
			MaxM:         8,
			K:            100,
			Ds:           []int{2, 3},
		})
	})
	return benchEnv
}

func BenchmarkFig6IndexConstruction(b *testing.B) {
	e := env()
	g := e.Wiki()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := index.Build(g, index.Options{D: 3})
		if err != nil {
			b.Fatal(err)
		}
		_ = ix.Stats()
	}
}

func BenchmarkFig7TimeVsPatternsWiki(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tabs := bench.RunFig7(e)
		if len(tabs) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkFig8TimeVsPatternsIMDB(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		t := bench.RunFig8(e)
		if len(t.Header) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig9TimeVsSubtrees(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tabs := bench.RunFig9(e)
		if len(tabs) != 2 {
			b.Fatal("want 2 tables")
		}
	}
}

func BenchmarkFig10Scalability(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		t := bench.RunFig10(e)
		if len(t.Rows) != 10 {
			b.Fatal("want 10 rows")
		}
	}
}

func BenchmarkExpKVaryK(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		t := bench.RunExpK(e)
		if len(t.Rows) != 4 {
			b.Fatal("want 4 rows")
		}
	}
}

func BenchmarkFig11SamplingThreshold(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tabs := bench.RunFig11(e)
		if len(tabs) != 2 {
			b.Fatal("want time+precision tables")
		}
	}
}

func BenchmarkFig12SamplingRate(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tabs := bench.RunFig12(e)
		if len(tabs) != 2 {
			b.Fatal("want time+precision tables")
		}
	}
}

func BenchmarkFig13Coverage(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		t := bench.RunFig13(e)
		if len(t.Header) != 4 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig14_15CaseStudy(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		out := bench.RunCaseStudy(e, "washington city")
		if len(out) == 0 {
			b.Fatal("empty case study")
		}
	}
}

func BenchmarkFig16VaryKeywords(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		t := bench.RunFig16(e)
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- micro-benchmarks of the individual components ---

// benchQueries picks a few answerable workload queries per keyword count.
func benchQueries(e *bench.Env) []string {
	ix := e.WikiIndex(3)
	var out []string
	for _, q := range e.WikiQueries() {
		if p, _, _ := search.CountAllCapped(ix, q.Text, 0); p > 0 {
			out = append(out, q.Text)
		}
		if len(out) == 8 {
			break
		}
	}
	return out
}

func BenchmarkQueryPETopK(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchQueries(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := search.PETopK(ix, qs[i%len(qs)], search.Options{K: 100, SkipTrees: true})
		_ = res.Stats.PatternsFound
	}
}

// --- parallel query execution ---

// benchHeavyQueries ranks the answerable workload queries by valid-subtree
// count and keeps the heaviest n, so the parallel worker pool has a
// frontier worth sharding (trivial queries only measure pool overhead).
func benchHeavyQueries(e *bench.Env, n int) []string {
	ix := e.WikiIndex(3)
	type hq struct {
		q     string
		trees int64
	}
	var hqs []hq
	for _, q := range e.WikiQueries() {
		if p, tr, _ := search.CountAllCapped(ix, q.Text, 0); p > 0 && tr < 2_000_000 {
			hqs = append(hqs, hq{q: q.Text, trees: tr})
		}
	}
	sort.Slice(hqs, func(i, j int) bool { return hqs[i].trees > hqs[j].trees })
	if len(hqs) > n {
		hqs = hqs[:n]
	}
	out := make([]string, len(hqs))
	for i, h := range hqs {
		out[i] = h.q
	}
	return out
}

// BenchmarkParallelPETopK measures the parallel-vs-serial speedup of
// PATTERNENUM's sharded frontier: compare workers=1 with workers=4
// (workers=4 should be ≥2× faster on a 4-core machine; with a single
// core the sub-benchmarks simply coincide).
func BenchmarkParallelPETopK(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchHeavyQueries(e, 4)
	if len(qs) == 0 {
		b.Skip("no heavy queries in the reduced workload")
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := search.PETopK(ix, qs[i%len(qs)], search.Options{K: 100, SkipTrees: true, Workers: workers})
				_ = res.Stats.PatternsFound
			}
		})
	}
}

// BenchmarkParallelLETopK is the LINEARENUM-TOPK counterpart (sharded by
// root type, so the attainable speedup is bounded by type skew).
func BenchmarkParallelLETopK(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchHeavyQueries(e, 4)
	if len(qs) == 0 {
		b.Skip("no heavy queries in the reduced workload")
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := search.LETopK(ix, qs[i%len(qs)], search.Options{K: 100, SkipTrees: true, Workers: workers})
				_ = res.Stats.PatternsFound
			}
		})
	}
}

func BenchmarkQueryLETopK(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchQueries(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := search.LETopK(ix, qs[i%len(qs)], search.Options{K: 100, SkipTrees: true})
		_ = res.Stats.PatternsFound
	}
}

// BenchmarkSearchAuto is the engine half of the search_cold workload in
// process: SynthWiki at 6,000 entities and 60 types, d = 3, and Auto
// searches with K = 10 and 50 rows per table over a fixed dataset.Workload
// list, cycled. Unlike QueryLETopK it materializes the tables' subtrees,
// so the rank stage is in the pass too. `make profile-search` profiles it.
func BenchmarkSearchAuto(b *testing.B) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 6000, Types: 60, Seed: 1})
	eng, err := NewEngine(&Graph{g: g}, EngineOptions{D: 3})
	if err != nil {
		b.Fatal(err)
	}
	var qs []string
	for _, q := range dataset.Workload(g, dataset.WorkloadConfig{PerM: 40, MaxM: 6, Seed: 1}) {
		qs = append(qs, q.Text)
	}
	ctx := context.Background()
	opts := SearchOptions{K: 10, Algorithm: Auto, MaxRowsPerTable: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.SearchPlan(ctx, qs[i%len(qs)], opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryLETopKSampled(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchQueries(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := search.LETopK(ix, qs[i%len(qs)], search.Options{
			K: 100, SkipTrees: true, Lambda: 1000, Rho: 0.1,
		})
		_ = res.Stats.PatternsFound
	}
}

func BenchmarkQueryBaseline(b *testing.B) {
	e := env()
	bl := e.WikiBaseline(3)
	qs := benchQueries(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bl.Search(qs[i%len(qs)], search.Options{K: 100, SkipTrees: true, MaxTreesPerPattern: 8})
		_ = res.Stats.PatternsFound
	}
}

func BenchmarkQueryTopTrees(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchQueries(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words, surfaces := search.ResolveQuery(ix.Dict(), qs[i%len(qs)])
		trees, _ := search.TopTrees(ix, words, surfaces, 100, search.Options{})
		_ = trees
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := env().Wiki()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := rank.PageRank(g, rank.Options{})
		_ = pr[0]
	}
}

func BenchmarkComposeTable(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchQueries(e)
	res := search.LETopK(ix, qs[0], search.Options{K: 1})
	if len(res.Patterns) == 0 {
		b.Skip("query has no answers")
	}
	rp := res.Patterns[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := core.ComposeTable(ix.Graph(), ix.PatternTable(), rp.Pattern, rp.Trees)
		_ = t.Rows
	}
}

// --- ablation benches for design choices the paper leaves open ---

// BenchmarkAblationTreeShape compares tuple semantics (the paper's
// counting) against strict tree-shape filtering.
func BenchmarkAblationTreeShape(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchQueries(e)
	for _, strict := range []bool{false, true} {
		b.Run(fmt.Sprintf("requireTree=%v", strict), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := search.LETopK(ix, qs[i%len(qs)], search.Options{
					K: 100, SkipTrees: true, RequireTreeShape: strict,
				})
				_ = res.Stats.TreesFound
			}
		})
	}
}

// BenchmarkAblationAggregation compares the four pattern-score
// aggregation functions of Section 2.2.3.
func BenchmarkAblationAggregation(b *testing.B) {
	e := env()
	ix := e.WikiIndex(3)
	qs := benchQueries(e)
	for _, agg := range []core.Agg{core.AggSum, core.AggCount, core.AggAvg, core.AggMax} {
		b.Run(agg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := search.PETopK(ix, qs[i%len(qs)], search.Options{
					K: 100, SkipTrees: true, Agg: agg,
				})
				_ = res.Stats.PatternsFound
			}
		})
	}
}

// BenchmarkAblationIndexWorkers measures parallel index construction.
func BenchmarkAblationIndexWorkers(b *testing.B) {
	g := env().Wiki()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := index.Build(g, index.Options{D: 3, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				_ = ix.Stats()
			}
		})
	}
}

// BenchmarkAblationHeightThreshold shows query cost growth with d on a
// fixed query set (the driver behind Figure 7's per-d panels).
func BenchmarkAblationHeightThreshold(b *testing.B) {
	e := env()
	qs := benchQueries(e)
	for _, d := range []int{2, 3} {
		ix := e.WikiIndex(d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := search.PETopK(ix, qs[i%len(qs)], search.Options{K: 100, SkipTrees: true})
				_ = res.Stats.PatternsFound
			}
		})
	}
}

// BenchmarkShardedSearch runs SearchPlan over the bench queries at one and
// two shards: the one-shard engine's direct execution against the
// scatter-gather, whose legs list every pattern in content order and whose
// gather merges them. It is the sharded path's profile target
// (-bench 'ShardedSearch/shards=2' -cpuprofile).
func BenchmarkShardedSearch(b *testing.B) {
	e := env()
	qs := benchQueries(e)
	opts := SearchOptions{K: 10, Algorithm: Auto, MaxRowsPerTable: 20}
	for _, n := range []int{1, 2} {
		var eng *Engine
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			if eng == nil {
				var err error
				if eng, err = NewEngine(&Graph{g: e.Wiki()}, EngineOptions{D: 3, Shards: n}); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.SearchPlan(ctx, qs[i%len(qs)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndEngine measures the public API path including table
// composition, per answerable query.
func BenchmarkEndToEndEngine(b *testing.B) {
	gd, _ := dataset.Fig1()
	_ = gd
	bld := NewBuilder()
	sql := bld.Entity("Software", "SQL Server")
	ms := bld.Entity("Company", "Microsoft")
	bld.Attr(sql, "Developer", ms)
	bld.TextAttr(ms, "Revenue", "US$ 77 billion")
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(g, EngineOptions{D: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers, err := eng.Search("software company revenue", 5)
		if err != nil || len(answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkApplyUpdate measures the write path of one engine (graph delta,
// affected roots, index splice, PageRank refresh) per update, with updates
// shaped like the benchmark module's WAL tail: "structural" adds an entity
// with a text attribute and an edge to an existing entity (it dirties that
// entity's neighbourhood), "text" re-texts an existing entity, and
// "isolated" adds an entity with two text attributes and no edge into the
// graph (the shape of the live adds, whose cost is the PageRank change
// alone). "isolated_shards=2" is the isolated add on a two-shard engine,
// mixed_rw's shape: the shard that owns the new entity splices, the other
// only rebinds to the new PageRank vector. Words, types and attributes come
// from the corpus, so the spliced posting lists are the large ones. Every
// iteration applies one update to its case's engine.
func BenchmarkApplyUpdate(b *testing.B) {
	kgr := env().Wiki()
	engines := map[int]*Engine{}
	engine := func(b *testing.B, shards int) *Engine {
		if engines[shards] == nil {
			eng, err := NewEngine(&Graph{g: kgr}, EngineOptions{D: 3, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			engines[shards] = eng
		}
		return engines[shards]
	}
	var entities []int64
	for v := 0; v < kgr.NumNodes(); v++ {
		if kgr.Type(kg.NodeID(v)) != kg.LiteralType {
			entities = append(entities, int64(v))
		}
	}
	rng := rand.New(rand.NewSource(1))
	entity := func() int64 { return entities[rng.Intn(len(entities))] }
	text := func() string { return kgr.Text(kg.NodeID(entity())) }
	attr := func() string { return kgr.AttrName(kg.AttrID(rng.Intn(kgr.NumAttrs()))) }
	isolated := func() Update {
		var u Update
		ref := u.AddEntity(kgr.TypeName(kgr.Type(kg.NodeID(entity()))), text())
		u.AddTextAttr(ref, attr(), text())
		u.AddTextAttr(ref, attr(), text())
		return u
	}
	for _, bc := range []struct {
		name   string
		shards int
		update func() Update
	}{
		{"structural", 1, func() Update {
			var u Update
			ref := u.AddEntity(kgr.TypeName(kgr.Type(kg.NodeID(entity()))), text())
			u.AddTextAttr(ref, attr(), text())
			u.AddAttr(ref, attr(), entity())
			return u
		}},
		{"text", 1, func() Update {
			var u Update
			u.SetText(entity(), text())
			return u
		}},
		{"isolated", 1, isolated},
		{"isolated_shards=2", 2, isolated},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := engine(b, bc.shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := bc.update()
				if _, _, err := eng.ApplyUpdate(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexLoadV2 measures decoding a wire index (v3 since the term
// pools key on nodes; the name is kept for comparable histories):
// validating each word block and re-deriving both views under a
// precomputed PageRank vector.
func BenchmarkIndexLoadV2(b *testing.B) {
	e := env()
	var buf bytes.Buffer
	if err := e.WikiIndex(3).Encode(&buf); err != nil {
		b.Fatal(err)
	}
	pr := rank.PageRank(e.Wiki(), rank.Options{})
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Load(bytes.NewReader(buf.Bytes()), e.Wiki(), pr); err != nil {
			b.Fatal(err)
		}
	}
}
