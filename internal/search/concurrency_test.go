package search

import (
	"slices"
	"sync"
	"testing"
)

// TestConcurrentQueries exercises read-concurrency on a shared index: the
// paper's setting is an online search service, so many queries run against
// one immutable index at once. Run with -race to validate the claim that
// queries never mutate shared state.
func TestConcurrentQueries(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	queries := []string{
		fig1Query,
		"database software",
		"company revenue",
		"microsoft products",
		"bill gates",
	}
	ref, refLE := make([]*Result, len(queries)), make([]*Result, len(queries))
	for i, q := range queries {
		ref[i] = PETopK(ix, q, Options{K: 20})
		refLE[i] = LETopK(ix, q, Options{K: 20})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				qi := (w + rep) % len(queries)
				var got *Result
				switch rep % 3 {
				case 0:
					got = PETopK(ix, queries[qi], Options{K: 20})
				case 1:
					got = LETopK(ix, queries[qi], Options{K: 20})
				default:
					got = LETopK(ix, queries[qi], Options{K: 20, Lambda: 1, Rho: 0.7, Seed: int64(w + 1)})
				}
				// LINEARENUM's scratch is pooled across queries: a scratch
				// another goroutine used must not leak into these answers.
				if rep%3 != 2 && len(got.Patterns) != len(ref[qi].Patterns) {
					errs <- queries[qi]
				} else if rep%3 == 1 && !sameRanking(got, refLE[qi]) {
					errs <- queries[qi]
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errs)
	for q := range errs {
		t.Errorf("concurrent run diverged for %q", q)
	}
}

// TestConcurrentBaseline checks the baseline's read path too (it interns
// patterns into a per-query table, so nothing shared is written).
func TestConcurrentBaseline(t *testing.T) {
	g, _ := buildFig1Index(t, 3)
	bl, err := NewBaseline(g.Graph(), BaselineOptions{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				res := bl.Search("database software", Options{K: 10})
				if len(res.Patterns) == 0 {
					t.Error("baseline found nothing")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sameRanking reports whether two results rank the same patterns with the
// same aggregates, scores and subtree counts, in the same order.
func sameRanking(a, b *Result) bool {
	if len(a.Patterns) != len(b.Patterns) {
		return false
	}
	for i := range a.Patterns {
		p, q := &a.Patterns[i], &b.Patterns[i]
		if !slices.Equal(p.Pattern.Paths, q.Pattern.Paths) || p.Agg != q.Agg || p.Score != q.Score || len(p.Trees) != len(q.Trees) {
			return false
		}
	}
	return true
}
