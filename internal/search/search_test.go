package search

import (
	"context"
	"math"
	"strings"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
)

const fig1Query = "database software company revenue"

func buildFig1Index(t testing.TB, d int) (*index.Index, dataset.Fig1Nodes) {
	t.Helper()
	g, nodes := dataset.Fig1()
	ix, err := index.Build(g, index.Options{D: d, UniformPR: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, nodes
}

// probe is PlanProbe over q resolved against ix's dictionary.
func probe(ctx context.Context, ix *index.Index, q string) (PlanStats, error) {
	words, _ := ResolveQuery(ix.Dict(), q)
	return PlanProbe(ctx, ix, words, Options{})
}

// executeQuery is Execute over q resolved against ix's dictionary.
func executeQuery(ctx context.Context, ix *index.Index, q string, algo Algo, opts Options) (*Result, error) {
	words, surfaces := ResolveQuery(ix.Dict(), q)
	return Execute(ctx, ix, words, surfaces, algo, opts)
}

// topTrees is TopTrees over q resolved against ix's dictionary.
func topTrees(ix *index.Index, q string, k int, opts Options) ([]RankedTree, QueryStats) {
	words, surfaces := ResolveQuery(ix.Dict(), q)
	return TopTrees(ix, words, surfaces, k, opts)
}

// renderResult maps rendered tree pattern -> (score, tree count) for
// cross-algorithm comparison.
type renderedPattern struct {
	Score float64
	Count int
}

func renderPE(ix *index.Index, res *Result) map[string]renderedPattern {
	out := map[string]renderedPattern{}
	for _, rp := range res.Patterns {
		key := rp.Pattern.Render(ix.Graph(), ix.PatternTable(), res.Stats.Surfaces)
		out[key] = renderedPattern{Score: rp.Score, Count: rp.Agg.Count}
	}
	return out
}

func renderBL(g *kg.Graph, res *BaselineResult) map[string]renderedPattern {
	out := map[string]renderedPattern{}
	for _, rp := range res.Patterns {
		key := rp.Pattern.Render(g, res.Table, res.Stats.Surfaces)
		out[key] = renderedPattern{Score: rp.Score, Count: rp.Agg.Count}
	}
	return out
}

const p1Render = `database: (Software) (Genre) (Model)
software: (Software)
company: (Software) (Developer) (Company)
revenue: (Software) (Developer) (Company) (Revenue)`

const p2Render = `database: (Book)
software: (Book)
company: (Book) (Publisher) (Company)
revenue: (Book) (Publisher) (Company) (Revenue)`

func TestPETopKFindsPaperPatterns(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	res := PETopK(ix, fig1Query, Options{K: 100})
	got := renderPE(ix, res)

	p1, ok := got[p1Render]
	if !ok {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		t.Fatalf("pattern P1 missing; got patterns:\n%s", strings.Join(keys, "\n---\n"))
	}
	if p1.Count != 2 {
		t.Errorf("P1 should aggregate T1 and T2, got %d trees", p1.Count)
	}
	// Example 2.4: score(T1) = (1/8)*4*3.5 = 1.75. Our tokenizer splits
	// "O-R database" into three tokens (the paper counts two), so
	// score(T2) = (1/8)*4*(1/3+3) = 5/3 and score(P1) = 1.75 + 5/3.
	wantP1 := 1.75 + 5.0/3
	if math.Abs(p1.Score-wantP1) > 1e-9 {
		t.Errorf("score(P1) = %v, want %v", p1.Score, wantP1)
	}

	p2, ok := got[p2Render]
	if !ok {
		t.Fatalf("pattern P2 missing")
	}
	if p2.Count != 1 {
		t.Errorf("P2 should have exactly T3, got %d trees", p2.Count)
	}
	// (1/7) * 4 * (1/4 + 1/4 + 1 + 1) = 10/7.
	if math.Abs(p2.Score-10.0/7) > 1e-9 {
		t.Errorf("score(P2) = %v, want %v", p2.Score, 10.0/7)
	}
	if p1.Score <= p2.Score {
		t.Errorf("P1 must outrank P2")
	}
	// P1 is the top answer for this query on this graph.
	if res.Patterns[0].Pattern.Render(ix.Graph(), ix.PatternTable(), res.Stats.Surfaces) != p1Render {
		t.Errorf("top-1 should be P1, got:\n%s",
			res.Patterns[0].Pattern.Render(ix.Graph(), ix.PatternTable(), res.Stats.Surfaces))
	}
}

func TestLETopKAgreesWithPETopK(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	for _, q := range []string{
		fig1Query,
		"database software",
		"company revenue",
		"bill gates",
		"microsoft products",
		"database",
		"oracle",
	} {
		pe := PETopK(ix, q, Options{K: 100})
		le := LETopK(ix, q, Options{K: 100})
		gotPE := renderPE(ix, pe)
		gotLE := renderPE(ix, le)
		if len(gotPE) != len(gotLE) {
			t.Errorf("q=%q: pattern counts differ: PE=%d LE=%d", q, len(gotPE), len(gotLE))
			continue
		}
		for k, v := range gotPE {
			lv, ok := gotLE[k]
			if !ok {
				t.Errorf("q=%q: LETopK missing pattern:\n%s", q, k)
				continue
			}
			if math.Abs(v.Score-lv.Score) > 1e-9 || v.Count != lv.Count {
				t.Errorf("q=%q: pattern %q disagrees: PE=%+v LE=%+v", q, k, v, lv)
			}
		}
		// Ranked order must agree too.
		for i := range pe.Patterns {
			a := pe.Patterns[i].Pattern.Render(ix.Graph(), ix.PatternTable(), pe.Stats.Surfaces)
			b := le.Patterns[i].Pattern.Render(ix.Graph(), ix.PatternTable(), le.Stats.Surfaces)
			if a != b {
				t.Errorf("q=%q: rank %d differs:\n%s\nvs\n%s", q, i, a, b)
			}
		}
	}
}

func TestBaselineAgreesWithPETopK(t *testing.T) {
	g, _ := dataset.Fig1()
	ix, err := index.Build(g, index.Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := NewBaseline(g, BaselineOptions{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{fig1Query, "database software", "company revenue", "microsoft"} {
		pe := PETopK(ix, q, Options{K: 100})
		blres := bl.Search(q, Options{K: 100})
		gotPE := renderPE(ix, pe)
		gotBL := renderBL(g, blres)
		if len(gotPE) != len(gotBL) {
			t.Errorf("q=%q: pattern counts differ: PE=%d BL=%d", q, len(gotPE), len(gotBL))
			continue
		}
		for k, v := range gotPE {
			bv, ok := gotBL[k]
			if !ok {
				t.Errorf("q=%q: baseline missing pattern:\n%s", q, k)
				continue
			}
			if math.Abs(v.Score-bv.Score) > 1e-9 || v.Count != bv.Count {
				t.Errorf("q=%q: pattern %q disagrees: PE=%+v BL=%+v", q, k, v, bv)
			}
		}
	}
}

func TestTopKTruncation(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	all := PETopK(ix, fig1Query, Options{K: 1000})
	for _, k := range []int{1, 2, 3} {
		res := PETopK(ix, fig1Query, Options{K: k})
		if len(res.Patterns) != k {
			t.Fatalf("K=%d returned %d patterns (total %d)", k, len(res.Patterns), len(all.Patterns))
		}
		for i := 0; i < k; i++ {
			if res.Patterns[i].Score != all.Patterns[i].Score {
				t.Errorf("K=%d rank %d score differs", k, i)
			}
		}
	}
}

func TestMaterializedTreesAreValid(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	res := LETopK(ix, fig1Query, Options{K: 10})
	g := ix.Graph()
	pt := ix.PatternTable()
	if len(res.Patterns) == 0 {
		t.Fatalf("no patterns")
	}
	for _, rp := range res.Patterns {
		if len(rp.Trees) != rp.Agg.Count {
			t.Errorf("materialized %d trees, scored %d", len(rp.Trees), rp.Agg.Count)
		}
		if h := rp.Pattern.Height(pt); h > ix.D() {
			t.Errorf("pattern height %d exceeds d=%d", h, ix.D())
		}
		for _, st := range rp.Trees {
			if len(st.Paths) != len(res.Stats.Words) {
				t.Fatalf("tree has %d paths for %d keywords", len(st.Paths), len(res.Stats.Words))
			}
			for i, p := range st.Paths {
				if p.Root != st.Root {
					t.Errorf("path %d root %d != tree root %d", i, p.Root, st.Root)
				}
				// The path's pattern must equal the tree pattern's i-th entry.
				if pt.Intern(p.Pattern(g)) != rp.Pattern.Paths[i] {
					t.Errorf("path %d pattern mismatch", i)
				}
				if p.Len() > ix.D() {
					t.Errorf("path longer than d")
				}
			}
		}
	}
}

func TestUnknownKeywordGivesEmptyResult(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	for _, q := range []string{"zebra", "database zebra", ""} {
		for _, res := range []*Result{PETopK(ix, q, Options{}), LETopK(ix, q, Options{})} {
			if len(res.Patterns) != 0 {
				t.Errorf("q=%q should have no answers", q)
			}
		}
	}
	g, _ := dataset.Fig1()
	bl, _ := NewBaseline(g, BaselineOptions{D: 3, UniformPR: true})
	if res := bl.Search("database zebra", Options{}); len(res.Patterns) != 0 {
		t.Errorf("baseline should have no answers for unknown keyword")
	}
}

func TestDuplicateKeywordsCollapse(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	a := PETopK(ix, "database database software", Options{K: 50})
	b := PETopK(ix, "database software", Options{K: 50})
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("duplicate keyword changed result size: %d vs %d", len(a.Patterns), len(b.Patterns))
	}
	if len(a.Stats.Words) != 2 {
		t.Errorf("duplicates should collapse to 2 words, got %d", len(a.Stats.Words))
	}
}

func TestCountAll(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	patterns, trees, _ := CountAllCapped(ix, fig1Query, 0)
	// Exhaustive run must agree.
	res := PETopK(ix, fig1Query, Options{K: 100000})
	if patterns != res.Stats.PatternsFound {
		t.Errorf("CountAllCapped patterns = %d, PETopK found %d", patterns, res.Stats.PatternsFound)
	}
	if trees != res.Stats.TreesFound {
		t.Errorf("CountAllCapped trees = %d, PETopK found %d", trees, res.Stats.TreesFound)
	}
	if p, tr, _ := CountAllCapped(ix, "zebra", 0); p != 0 || tr != 0 {
		t.Errorf("unknown word should count zero")
	}
}

func TestSamplingExactWhenBelowThreshold(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	// Λ larger than any NR on this tiny graph: no sampling happens even
	// with a tiny ρ.
	exact := LETopK(ix, fig1Query, Options{K: 100})
	sampled := LETopK(ix, fig1Query, Options{K: 100, Lambda: 1 << 40, Rho: 0.01})
	if len(exact.Patterns) != len(sampled.Patterns) {
		t.Fatalf("Λ=∞ should be exact: %d vs %d", len(exact.Patterns), len(sampled.Patterns))
	}
	for i := range exact.Patterns {
		if exact.Patterns[i].Score != sampled.Patterns[i].Score {
			t.Errorf("rank %d scores differ", i)
		}
	}
	if sampled.Stats.SampledRoots != exact.Stats.SampledRoots {
		t.Errorf("no root should be skipped below threshold")
	}
}

func TestSamplingReturnsExactScoresForSurvivors(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	// Force sampling on everything (Λ=1). Survivor patterns must carry
	// exact scores (they are re-scored over all roots of their type).
	exact := renderPE(ix, PETopK(ix, fig1Query, Options{K: 1000}))
	res := LETopK(ix, fig1Query, Options{K: 5, Lambda: 1, Rho: 0.6, Seed: 7})
	for _, rp := range res.Patterns {
		key := rp.Pattern.Render(ix.Graph(), ix.PatternTable(), res.Stats.Surfaces)
		want, ok := exact[key]
		if !ok {
			t.Errorf("sampled result contains unknown pattern:\n%s", key)
			continue
		}
		if math.Abs(rp.Score-want.Score) > 1e-9 {
			t.Errorf("survivor score %v != exact %v for\n%s", rp.Score, want.Score, key)
		}
		if rp.Agg.Count != want.Count {
			t.Errorf("survivor count %d != exact %d", rp.Agg.Count, want.Count)
		}
	}
	if res.Stats.SampledRoots >= res.Stats.CandidateRoots {
		t.Logf("note: sampling kept all roots (tiny graph); sampled=%d candidates=%d",
			res.Stats.SampledRoots, res.Stats.CandidateRoots)
	}
}

func TestSamplingDeterministicBySeed(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	a := LETopK(ix, fig1Query, Options{K: 5, Lambda: 1, Rho: 0.5, Seed: 42})
	b := LETopK(ix, fig1Query, Options{K: 5, Lambda: 1, Rho: 0.5, Seed: 42})
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("same seed, different result sizes")
	}
	for i := range a.Patterns {
		if a.Patterns[i].Score != b.Patterns[i].Score {
			t.Errorf("same seed, different scores at rank %d", i)
		}
	}
}

func TestAggregationModes(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	sum := PETopK(ix, fig1Query, Options{K: 100, Agg: core.AggSum})
	cnt := PETopK(ix, fig1Query, Options{K: 100, Agg: core.AggCount})
	mx := PETopK(ix, fig1Query, Options{K: 100, Agg: core.AggMax})
	avg := PETopK(ix, fig1Query, Options{K: 100, Agg: core.AggAvg})
	if len(sum.Patterns) != len(cnt.Patterns) || len(sum.Patterns) != len(mx.Patterns) {
		t.Fatalf("agg mode should not change the pattern set size")
	}
	for _, rp := range cnt.Patterns {
		if rp.Score != float64(rp.Agg.Count) {
			t.Errorf("count mode score %v != count %d", rp.Score, rp.Agg.Count)
		}
	}
	for _, rp := range avg.Patterns {
		if rp.Agg.Count > 0 && math.Abs(rp.Score-rp.Agg.Sum/float64(rp.Agg.Count)) > 1e-12 {
			t.Errorf("avg mode score wrong")
		}
	}
	for _, rp := range mx.Patterns {
		if rp.Score != rp.Agg.Max {
			t.Errorf("max mode score wrong")
		}
	}
}

func TestSkipTrees(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	res := PETopK(ix, fig1Query, Options{K: 10, SkipTrees: true})
	for _, rp := range res.Patterns {
		if rp.Trees != nil {
			t.Errorf("SkipTrees should leave trees nil")
		}
	}
}

func TestMaxTreesPerPattern(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	res := PETopK(ix, fig1Query, Options{K: 10, MaxTreesPerPattern: 1})
	for _, rp := range res.Patterns {
		if len(rp.Trees) > 1 {
			t.Errorf("cap exceeded: %d trees", len(rp.Trees))
		}
		// Scores still reflect ALL trees.
		if rp.Agg.Count > 1 && len(rp.Trees) != 1 {
			t.Errorf("capped pattern should still keep one tree")
		}
	}
}

func TestRequireTreeShapeFiltersDiamonds(t *testing.T) {
	// Build a diamond: r -> a -> x, r -> b -> x where the two words sit on
	// a and b's texts and x... here the tuple (path to x via a, path to x
	// via b) re-converges at x.
	b := kg.NewBuilder()
	r := b.Entity("Root", "start")
	a := b.Entity("Mid", "alpha")
	bb := b.Entity("Mid", "beta")
	x := b.Entity("End", "omega")
	b.Attr(r, "p", a)
	b.Attr(r, "q", bb)
	b.Attr(a, "z", x)
	b.Attr(bb, "z", x)
	g := b.MustFreeze()
	ix, err := index.Build(g, index.Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	// Query "omega omega" is one word; use "alpha omega" + "beta omega"?
	// The diamond tuple arises for query {omega} x {omega}? A single
	// keyword has a single path per tuple, always tree-shaped. Use two
	// keywords that both reach x: "omega" via a and via b is the SAME
	// keyword. Instead query "start omega": paths (r) and (r,p,a,z,x) /
	// (r,q,b,z,x) — trees, no diamond. The diamond needs two words each
	// matched at x through different branches: impossible to distinguish
	// words at the same node... unless the second word is on a/b types.
	// Query "mid omega": mid matches a and b (type), omega matches x via
	// both branches. Tuple (mid@a, omega via b-branch) IS tree shaped
	// (paths diverge); tuple (mid@a, omega via a-branch) shares the prefix.
	// No diamond within m=2 here. Diamonds need m>=2 words BOTH below the
	// re-convergence point: "end omega" — end matches x (type), omega
	// matches x (text): tuple (end via a, omega via b) re-converges at x.
	resAll := PETopK(ix, "end omega", Options{K: 100})
	resTree := PETopK(ix, "end omega", Options{K: 100, RequireTreeShape: true})
	var allTrees, treeTrees int64
	for _, rp := range resAll.Patterns {
		allTrees += int64(rp.Agg.Count)
	}
	for _, rp := range resTree.Patterns {
		treeTrees += int64(rp.Agg.Count)
	}
	if allTrees <= treeTrees {
		t.Errorf("tree-shape filter should remove re-converging tuples: all=%d filtered=%d", allTrees, treeTrees)
	}
	if treeTrees == 0 {
		t.Errorf("straight tuples should survive the filter")
	}
}

func TestPETopKEmptyCombinationAccounting(t *testing.T) {
	// Worst-case sketch of Section 4.1: two roots of the same type whose
	// keyword matches never co-occur under one root still generate
	// combinations that all turn out empty.
	b := kg.NewBuilder()
	r1 := b.Entity("C", "left")
	r2 := b.Entity("C", "right")
	for i := 0; i < 3; i++ {
		x := b.Entity("T", "wordone")
		b.Attr(r1, "a"+string(rune('0'+i)), x)
		y := b.Entity("T", "wordtwo")
		b.Attr(r2, "b"+string(rune('0'+i)), y)
	}
	g := b.MustFreeze()
	ix, err := index.Build(g, index.Options{D: 2, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	res := PETopK(ix, "wordone wordtwo", Options{K: 10})
	if len(res.Patterns) != 0 {
		t.Fatalf("no pattern joins at a single root, got %d", len(res.Patterns))
	}
	// 3x3 combinations under root type C, plus the ((T),(T)) combination
	// under root type T (the matched leaves are themselves type-T roots).
	if res.Stats.EmptyChecked != 10 {
		t.Errorf("PETopK should have checked 10 empty combinations, got %d", res.Stats.EmptyChecked)
	}
	// LINEARENUM never touches empty combinations.
	le := LETopK(ix, "wordone wordtwo", Options{K: 10})
	if le.Stats.CandidateRoots != 0 {
		t.Errorf("no candidate roots expected, got %d", le.Stats.CandidateRoots)
	}
}

func TestTableFromSearchResult(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	res := PETopK(ix, fig1Query, Options{K: 1})
	if len(res.Patterns) != 1 {
		t.Fatalf("want 1 pattern")
	}
	tab := res.Patterns[0].Table(ix)
	if len(tab.Rows) != 2 {
		t.Fatalf("P1 table should have 2 rows, got %d", len(tab.Rows))
	}
	found := 0
	for _, row := range tab.Rows {
		for _, cell := range row {
			if cell == "US$ 77 billion" || cell == "US$ 37 billion" {
				found++
			}
		}
	}
	if found != 2 {
		t.Errorf("revenue cells missing from table:\n%s", tab.Render(-1))
	}
}
