package kbtable

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

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

// TestPreparedHandleKeepsSnapshot drives random accepted updates through
// engine chains over both corpora at one and three shards and pins the
// prepared handle's snapshot semantics: a handle prepared on a superseded
// engine keeps answering that engine's bytes, exactly like an in-flight
// search, and a handle prepared on the successor answers the successor's
// bytes. Every handle executes the algorithm its plan names.
func TestPreparedHandleKeepsSnapshot(t *testing.T) {
	ctx := context.Background()
	opts := SearchOptions{K: 10, Algorithm: Auto, MaxRowsPerTable: 6}
	for _, spec := range goldenCorpora() {
		g := spec.graph(t)
		for _, shards := range []int{1, 3} {
			label := fmt.Sprintf("%s/shards=%d", spec.name, shards)
			rng := rand.New(rand.NewSource(int64(1000*len(spec.name) + shards)))
			e, err := NewEngine(g, EngineOptions{D: 3, Shards: shards, UniformPageRank: true})
			if err != nil {
				t.Fatal(err)
			}
			// answer runs p and checks that it executed the algorithm its
			// plan names.
			answer := func(step int, q string, p *PreparedQuery) string {
				ans, pi, err := p.Search(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if pi.Algorithm != p.Plan().Algorithm {
					t.Fatalf("%s/step %d/%q: handle planned %v, executed %v", label, step, q, p.Plan().Algorithm, pi.Algorithm)
				}
				return renderGolden(q, ans)
			}
			for step := 0; step < 2; step++ {
				bytes := map[string]string{}
				handles := map[string]*PreparedQuery{}
				for _, q := range spec.queries {
					ans, _, err := e.SearchPlan(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					bytes[q] = renderGolden(q, ans)
					if handles[q], err = e.PrepareContext(ctx, q, opts); err != nil {
						t.Fatal(err)
					}
				}
				ne, _, err := e.ApplyUpdate(randomBatchAccepted(t, rng, e))
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range spec.queries {
					if answer(step, q, handles[q]) != bytes[q] {
						t.Fatalf("%s/step %d/%q: superseded prepared handle changed its answers", label, step, q)
					}
					ans, _, err := ne.SearchPlan(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					np, err := ne.PrepareContext(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if answer(step, q, np) != renderGolden(q, ans) {
						t.Fatalf("%s/step %d/%q: re-prepared handle diverges from a fresh search", label, step, q)
					}
				}
				e = ne
			}
		}
	}
}
