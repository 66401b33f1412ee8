package kbtable

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// The Auto-equivalence property suite: on both golden corpora, across
// unsharded and sharded engines and both scoring modes, a query run with
// Algorithm: Auto must (a) report a concrete resolved algorithm with a
// planner rationale and (b) produce answers BYTE-identical — via the same
// full-fidelity rendering the golden suite pins — to explicitly
// requesting the algorithm the plan names. The planner may choose freely;
// it may never change a single bit of the answer.

func autoCorpora(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	for _, name := range []string{"wiki", "imdb"} {
		out[name] = loadCorpus(t, filepath.Join("testdata", "corpus", name+".txt"))
	}
	return out
}

func TestAutoEquivalenceProperty(t *testing.T) {
	queries := map[string][]string{}
	for _, spec := range goldenCorpora() {
		queries[spec.name] = spec.queries
	}
	// The property is only as strong as the branches it reaches: the
	// matrix must resolve to each algorithm at least once.
	resolved := map[Algorithm]int{}
	for name, g := range autoCorpora(t) {
		for _, shards := range []int{1, 2, 4} {
			for _, uniform := range []bool{false, true} {
				label := fmt.Sprintf("%s/shards=%d/uniform=%t", name, shards, uniform)
				e, err := NewEngine(g, EngineOptions{D: 3, Shards: shards, UniformPageRank: uniform})
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range queries[name] {
					opts := SearchOptions{K: 10, Algorithm: Auto, MaxRowsPerTable: 6}
					auto, pi, err := e.SearchPlan(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !pi.Auto {
						t.Fatalf("%s/%q: plan not marked auto", label, q)
					}
					if pi.Algorithm != PatternEnum && pi.Algorithm != LinearEnum {
						t.Fatalf("%s/%q: auto resolved to %v", label, q, pi.Algorithm)
					}
					if pi.Reason == "" {
						t.Fatalf("%s/%q: auto plan has no reason", label, q)
					}
					resolved[pi.Algorithm]++
					opts.Algorithm = pi.Algorithm
					explicit, xpi, err := e.SearchPlan(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if xpi.Auto {
						t.Fatalf("%s/%q: explicit plan marked auto", label, q)
					}
					if got, want := renderGolden(q, auto), renderGolden(q, explicit); got != want {
						t.Errorf("%s/%q: auto (%v) diverges from explicit:\n%s",
							label, q, pi.Algorithm, diffHint(want, got))
					}
				}
			}
		}
	}
	if resolved[PatternEnum] == 0 || resolved[LinearEnum] == 0 {
		t.Fatalf("the matrix must resolve Auto to both algorithms, got %v", resolved)
	}
}

// TestTopKMatchesBaselineProperty is the facade-level half of the
// streaming executor's guarantee: on both golden corpora, at every shard
// count and for every index-backed algorithm, the answers are
// BYTE-identical — via the same full-fidelity rendering the golden suite
// pins — to the independent Baseline's at the same K on a one-shard
// engine. Small K makes the top-k bound pushdown actually fire on the
// one-shard engine (scatters over more shards disable it by design).
func TestTopKMatchesBaselineProperty(t *testing.T) {
	queries := map[string][]string{}
	for _, spec := range goldenCorpora() {
		queries[spec.name] = spec.queries
	}
	for name, g := range autoCorpora(t) {
		oracle, err := NewEngine(g, EngineOptions{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s/shards=%d", name, shards)
			e, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 10} {
				for _, q := range queries[name] {
					opts := SearchOptions{K: k, Algorithm: Baseline, MaxRowsPerTable: 6}
					baseline, err := oracle.SearchContext(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := renderGolden(q, baseline)
					for _, algo := range []Algorithm{PatternEnum, LinearEnum, Auto} {
						opts.Algorithm = algo
						answers, err := e.SearchContext(context.Background(), q, opts)
						if err != nil {
							t.Fatal(err)
						}
						if got := renderGolden(q, answers); got != want {
							t.Errorf("%s/%v/k=%d/%q: diverges from the baseline:\n%s",
								label, algo, k, q, diffHint(want, got))
						}
					}
				}
			}
		}
	}
}

// TestPlanMatchesSearchPlan pins that the execution-free Plan API
// resolves exactly the algorithm a subsequent Auto search runs as — the
// property the serve layer's cache keying relies on.
func TestPlanMatchesSearchPlan(t *testing.T) {
	for name, g := range autoCorpora(t) {
		for _, shards := range []int{1, 3} {
			e, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range goldenCorpora() {
				if spec.name != name {
					continue
				}
				for _, q := range spec.queries {
					opts := SearchOptions{K: 10, Algorithm: Auto}
					planned, err := e.Plan(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					_, executed, err := e.SearchPlan(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if planned.Algorithm != executed.Algorithm {
						t.Errorf("%s/shards=%d/%q: Plan says %v, SearchPlan ran %v",
							name, shards, q, planned.Algorithm, executed.Algorithm)
					}
					if planned.Reason != executed.Reason {
						t.Errorf("%s/shards=%d/%q: plan reasons differ:\n  %s\n  %s",
							name, shards, q, planned.Reason, executed.Reason)
					}
				}
			}
		}
	}
}
