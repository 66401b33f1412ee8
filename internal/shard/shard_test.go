package shard

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
)

// shardCounts are the widths every suite runs at: the one-shard engine
// (direct execution) and partitions including a prime that never divides
// the synthetic type counts.
var shardCounts = []int{1, 2, 3, 8}

// testDatasets builds the reduced-scale synthetic corpora.
func testDatasets(t testing.TB) map[string]*kg.Graph {
	t.Helper()
	return map[string]*kg.Graph{
		"wiki": dataset.SynthWiki(dataset.WikiConfig{Entities: 600, Types: 24, Seed: 7}),
		"imdb": dataset.SynthIMDB(dataset.IMDBConfig{Movies: 220, Seed: 7}),
	}
}

// testQueries derives a deterministic workload from the graph's texts.
func testQueries(g *kg.Graph) []string {
	var words []string
	seen := map[string]bool{}
	for v := 0; v < g.NumNodes() && len(words) < 10; v++ {
		for _, f := range strings.Fields(strings.ToLower(g.Text(kg.NodeID(v)))) {
			if len(f) > 2 && !seen[f] {
				seen[f] = true
				words = append(words, f)
			}
			if len(words) >= 10 {
				break
			}
		}
	}
	qs := append([]string(nil), words[:min(3, len(words))]...)
	if len(words) >= 5 {
		qs = append(qs, words[0]+" "+words[4])
	}
	if len(words) >= 7 {
		qs = append(qs, words[2]+" "+words[6])
	}
	if len(words) >= 9 {
		qs = append(qs, words[1]+" "+words[5]+" "+words[8])
	}
	return qs
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// renderPattern snapshots one ranked pattern at full user-visible
// fidelity: exact score bits, aggregate, pattern text and composed table.
func renderPattern(g *kg.Graph, pt *core.PatternTable, p core.TreePattern, score float64, agg core.PatternScore, trees []core.Subtree, surfaces []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "score=%.17g sum=%.17g max=%.17g count=%d\n", score, agg.Sum, agg.Max, agg.Count)
	sb.WriteString(p.Render(g, pt, surfaces))
	sb.WriteByte('\n')
	sb.WriteString(core.ComposeTable(g, pt, p, trees).Render(-1))
	return sb.String()
}

// referenceResult runs the reference below the engine: the search
// executor on one unfiltered index.
func referenceResult(t testing.TB, g *kg.Graph, ix *index.Index, bl *search.BaselineIndex, algo search.Algo, query string, opts search.Options) []string {
	t.Helper()
	res, err := search.Executor{Ix: ix, BL: bl}.Search(context.Background(), query, algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Table // the baseline's per-query table
	if pt == nil {
		pt = ix.PatternTable()
	}
	var out []string
	for _, rp := range res.Patterns {
		out = append(out, renderPattern(g, pt, rp.Pattern, rp.Score, rp.Agg, rp.Trees, res.Stats.Surfaces))
	}
	return out
}

// engineResult runs the engine at the same fidelity.
func engineResult(t testing.TB, e *Engine, algo search.Algo, query string, opts search.Options) []string {
	t.Helper()
	res, err := e.Search(context.Background(), search.Plan{Algo: algo}, query, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(res.Patterns))
	for _, rp := range res.Patterns {
		out = append(out, renderPattern(e.Graph(), rp.Table, rp.Pattern, rp.Score, rp.Agg, rp.Trees, res.Stats.Surfaces))
	}
	return out
}

// TestShardEquivalence: for every synthetic dataset, algorithm and shard
// count, the engine's top-k — scores (exact bits), pattern signatures, and
// row multisets (in fact full row order) — is identical to the reference
// executor's on one index.
func TestShardEquivalence(t *testing.T) {
	for name, g := range testDatasets(t) {
		for _, uniform := range []bool{true, false} {
			iopts := index.Options{D: 3, UniformPR: uniform}
			ix, err := index.Build(g, iopts)
			if err != nil {
				t.Fatal(err)
			}
			bl, err := search.NewBaseline(g, search.BaselineOptions{D: 3, UniformPR: uniform})
			if err != nil {
				t.Fatal(err)
			}
			engines := make([]*Engine, 0, len(shardCounts))
			for _, n := range shardCounts {
				e, err := NewEngine(g, n, iopts)
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, e)
			}
			opts := search.Options{K: 10, MaxTreesPerPattern: 8}
			for _, algo := range []search.Algo{search.AlgoPE, search.AlgoLE, search.AlgoBaseline} {
				for _, q := range testQueries(g) {
					want := referenceResult(t, g, ix, bl, algo, q, opts)
					for ei, e := range engines {
						got := engineResult(t, e, algo, q, opts)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s uniform=%v algo=%v shards=%d query=%q:\nreference (%d):\n%s\nengine (%d):\n%s",
								name, uniform, algo, shardCounts[ei], q, len(want), strings.Join(want, "\n---\n"), len(got), strings.Join(got, "\n---\n"))
						}
					}
				}
			}
		}
	}
}
