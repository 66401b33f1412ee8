package kbtable

import (
	"context"
	"fmt"
	"testing"
)

// TestTopKMatchesBaselineProperty is the facade-level half of the
// streaming executor's guarantee: on both golden corpora, at every shard
// count and for every algorithm, the answers are BYTE-identical — via the
// same full-fidelity rendering the golden suite pins — to the independent
// Baseline's at the same K on a one-shard engine. Baseline itself runs on
// each engine's whole-graph index, so at every shard count it must match
// the one-shard oracle too. Small K makes the top-k bound pushdown
// actually fire on the one-shard engine (scatters over more shards
// disable it by design).
func TestTopKMatchesBaselineProperty(t *testing.T) {
	for _, spec := range goldenCorpora() {
		g := spec.graph(t)
		oracle, err := NewEngine(g, EngineOptions{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s/shards=%d", spec.name, shards)
			e, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 10} {
				for _, q := range spec.queries {
					opts := SearchOptions{K: k, Algorithm: Baseline, MaxRowsPerTable: 6}
					baseline, err := oracle.SearchContext(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := renderGolden(q, baseline)
					for _, algo := range []Algorithm{PatternEnum, LinearEnum, Auto, Baseline} {
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
	for _, spec := range goldenCorpora() {
		g := spec.graph(t)
		for _, shards := range []int{1, 3} {
			e, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
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
						spec.name, shards, q, planned.Algorithm, executed.Algorithm)
				}
				if planned.Reason != executed.Reason {
					t.Errorf("%s/shards=%d/%q: plan reasons differ:\n  %s\n  %s",
						spec.name, shards, q, planned.Reason, executed.Reason)
				}
			}
		}
	}
}
