package kbtable

import (
	"path/filepath"
	"sync"
	"testing"
)

var (
	fuzzEngOnce sync.Once
	fuzzEng     *Engine
)

func fuzzEngine(t testing.TB) *Engine {
	fuzzEngOnce.Do(func() {
		b := NewBuilder()
		sql := b.Entity("Software", "SQL Server")
		ms := b.Entity("Company", "Microsoft")
		model := b.Entity("Model", "Relational database")
		b.Attr(sql, "Developer", ms)
		b.Attr(sql, "Genre", model)
		b.TextAttr(ms, "Revenue", "US$ 77 billion")
		g, err := b.Build()
		if err != nil {
			return
		}
		fuzzEng, _ = NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	})
	if fuzzEng == nil {
		t.Fatal("engine build failed")
	}
	return fuzzEng
}

// FuzzSearchNeverPanics: arbitrary query strings (any bytes) must never
// panic any of the three algorithms, and results must be rank-consistent.
func FuzzSearchNeverPanics(f *testing.F) {
	f.Add("database software", int64(0))
	f.Add("", int64(1))
	f.Add("revenue revenue revenue", int64(2))
	f.Add("\x00\xff\xfe", int64(3))
	f.Add("a b c d e f g h i j k l m n o p q r s", int64(4))
	f.Fuzz(func(t *testing.T, q string, mode int64) {
		eng := fuzzEngine(t)
		algo := Algorithm(uint64(mode) % 3)
		answers, err := eng.SearchOpts(q, SearchOptions{K: 5, Algorithm: algo})
		if err != nil {
			t.Fatalf("SearchOpts(%q, %v) errored: %v", q, algo, err)
		}
		for i, a := range answers {
			if a.Rank != i+1 {
				t.Fatalf("rank %d mislabeled as %d", i+1, a.Rank)
			}
			if i > 0 && a.Score > answers[i-1].Score {
				t.Fatalf("answers not sorted at %d", i)
			}
			for _, row := range a.Rows {
				if len(row) != len(a.Columns) {
					t.Fatalf("ragged table for %q", q)
				}
			}
		}
		if _, err := eng.SearchTrees(q, 3); err != nil {
			t.Fatalf("SearchTrees(%q): %v", q, err)
		}
		if _, err := eng.Explain(q); err != nil {
			t.Fatalf("Explain(%q): %v", q, err)
		}
	})
}

// fuzzGraph deterministically decodes arbitrary bytes into a small valid
// knowledge base, so the fuzzer explores graph shapes rather than builder
// error paths.
func fuzzGraph(data []byte) (*Graph, error) {
	types := []string{"Doc", "Tag", "User"}
	attrs := []string{"links", "cites", "owns"}
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	i := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[i%len(data)])
		i++
		return b + i // mix the cursor in so runs of equal bytes still vary
	}
	b := NewBuilder()
	n := 2 + next()%10
	ids := make([]EntityID, n)
	for v := 0; v < n; v++ {
		txt := vocab[next()%len(vocab)]
		if next()%3 == 0 {
			txt += " " + vocab[next()%len(vocab)]
		}
		ids[v] = b.Entity(types[next()%len(types)], txt)
	}
	ne := next() % (2 * n)
	for e := 0; e < ne; e++ {
		src := ids[next()%n]
		if next()%5 == 0 {
			b.TextAttr(src, attrs[next()%len(attrs)], vocab[next()%len(vocab)])
		} else {
			b.Attr(src, attrs[next()%len(attrs)], ids[next()%n])
		}
	}
	return b.Build()
}

// FuzzIndexRoundTrip: for arbitrary graphs, saving the path-pattern index
// and loading it back (through internal/index's wire format) must yield an
// engine whose search results are identical to the original's, for both
// index-driven algorithms.
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, "alpha")
	f.Add([]byte{0xff, 0x00, 0x7f, 0x10}, "alpha beta")
	f.Add([]byte("abcdefghij"), "gamma links")
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, "")
	f.Fuzz(func(t *testing.T, data []byte, q string) {
		g, err := fuzzGraph(data)
		if err != nil {
			t.Fatalf("fuzzGraph: %v", err)
		}
		d := 2 + len(data)%2
		eng, err := NewEngine(g, EngineOptions{D: d, UniformPageRank: true})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		path := filepath.Join(t.TempDir(), "ix")
		if err := eng.SaveIndex(path); err != nil {
			t.Fatalf("SaveIndex: %v", err)
		}
		loaded, err := NewEngineFromIndex(g, path, EngineOptions{UniformPageRank: true})
		if err != nil {
			t.Fatalf("NewEngineFromIndex: %v", err)
		}
		if a, b := eng.IndexStats(), loaded.IndexStats(); a.Entries != b.Entries || a.Patterns != b.Patterns || a.D != b.D {
			t.Fatalf("index stats differ after round-trip: %+v vs %+v", a, b)
		}
		for _, query := range []string{q, "alpha", "beta gamma", "alpha links"} {
			for _, algo := range []Algorithm{PatternEnum, LinearEnum} {
				want, err := eng.SearchOpts(query, SearchOptions{K: 5, Algorithm: algo})
				if err != nil {
					t.Fatalf("original %v(%q): %v", algo, query, err)
				}
				got, err := loaded.SearchOpts(query, SearchOptions{K: 5, Algorithm: algo})
				if err != nil {
					t.Fatalf("loaded %v(%q): %v", algo, query, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v(%q): %d vs %d answers after round-trip", algo, query, len(got), len(want))
				}
				for i := range want {
					if got[i].Render(-1) != want[i].Render(-1) {
						t.Fatalf("%v(%q) answer %d differs after round-trip:\n%s\nvs\n%s",
							algo, query, i, got[i].Render(-1), want[i].Render(-1))
					}
				}
			}
		}
	})
}
