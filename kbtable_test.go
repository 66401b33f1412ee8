package kbtable

import (
	"strings"
	"testing"
)

// buildFig1Public rebuilds the paper's Figure 1 graph through the public
// API only.
func buildFig1Public(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	sql := b.Entity("Software", "SQL Server")
	rel := b.Entity("Model", "Relational database")
	ms := b.Entity("Company", "Microsoft")
	gates := b.Entity("Person", "Bill Gates")
	odb := b.Entity("Software", "Oracle DB")
	ordb := b.Entity("Model", "O-R database")
	oc := b.Entity("Company", "Oracle Corp")
	book := b.Entity("Book", "Handbook of Database Software")
	spr := b.Entity("Company", "Springer")
	b.Attr(sql, "Genre", rel)
	b.Attr(sql, "Developer", ms)
	b.Attr(sql, "Reference", book)
	b.TextAttr(ms, "Revenue", "US$ 77 billion")
	b.Attr(ms, "Founder", gates)
	b.Attr(odb, "Genre", ordb)
	b.Attr(odb, "Developer", oc)
	b.TextAttr(oc, "Revenue", "US$ 37 billion")
	b.Attr(book, "Publisher", spr)
	b.TextAttr(spr, "Revenue", "US$ 1 billion")
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestEngineQuickstart(t *testing.T) {
	g := buildFig1Public(t)
	if g.NumEntities() != 12 || g.NumTypes() == 0 {
		t.Errorf("graph shape wrong: %d entities", g.NumEntities())
	}
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	answers, err := eng.Search("database software company revenue", 10)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(answers) == 0 {
		t.Fatalf("no answers")
	}
	top := answers[0]
	if top.Rank != 1 || top.NumRows != 2 || len(top.Rows) != 2 {
		t.Errorf("top answer should be the two-row P1 table: %+v", top)
	}
	rendered := top.Render(-1)
	for _, want := range []string{"SQL Server", "Oracle DB", "US$ 77 billion", "US$ 37 billion"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
	if !strings.Contains(top.Pattern, "(Software) (Developer) (Company) (Revenue)") {
		t.Errorf("pattern description wrong:\n%s", top.Pattern)
	}
}

func TestEngineUnknownKeyword(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := eng.Search("quasar", 5)
	if err != nil {
		t.Fatalf("unknown keyword must not error: %v", err)
	}
	if len(answers) != 0 {
		t.Errorf("unknown keyword should give no answers")
	}
}

func TestEngineStats(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 2, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.IndexStats()
	if s.D != 2 || s.Entries == 0 || s.Patterns == 0 || s.SizeMB <= 0 {
		t.Errorf("stats look wrong: %+v", s)
	}
}

func TestEngineMaxRows(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := eng.SearchOpts("database software company revenue", SearchOptions{K: 1, MaxRowsPerTable: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || len(answers[0].Rows) != 1 {
		t.Fatalf("row cap not applied")
	}
	if answers[0].NumRows != 2 {
		t.Errorf("NumRows should report the uncapped count, got %d", answers[0].NumRows)
	}
}

func TestGraphSaveLoad(t *testing.T) {
	g := buildFig1Public(t)
	path := t.TempDir() + "/kb.gob"
	if err := g.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	if g2.NumEntities() != g.NumEntities() || g2.NumAttributes() != g.NumAttributes() {
		t.Errorf("roundtrip changed the graph")
	}
	// The loaded graph is queryable.
	eng, err := NewEngine(g2, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := eng.Search("microsoft founder", 5)
	if err != nil || len(answers) == 0 {
		t.Errorf("loaded graph not queryable: %v, %d answers", err, len(answers))
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := NewEngine(nil, EngineOptions{}); err == nil {
		t.Errorf("nil graph must error")
	}
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchOpts("x", SearchOptions{Algorithm: Algorithm(42)}); err == nil {
		t.Errorf("unknown algorithm must error")
	}
}

func TestAlgorithmString(t *testing.T) {
	if PatternEnum.String() != "PETopK" || LinearEnum.String() != "LETopK" ||
		Baseline.String() != "Baseline" || Algorithm(9).String() != "unknown" {
		t.Errorf("Algorithm.String wrong")
	}
}

func TestEngineSampling(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sampling on a tiny graph must still return correct exact scores for
	// survivors (they are re-scored exactly). A survivor may fall outside
	// the exact top-3 — that is the sampling error Theorem 5 bounds — but
	// its reported score must match the pattern's true score, so compare
	// against the scores of ALL exact patterns.
	exact, _ := eng.SearchOpts("database software", SearchOptions{K: 10000, Algorithm: LinearEnum})
	sampled, _ := eng.SearchOpts("database software", SearchOptions{K: 3, Algorithm: LinearEnum, Lambda: 1, Rho: 0.9, Seed: 5})
	exactScores := map[float64]bool{}
	for _, a := range exact {
		exactScores[a.Score] = true
	}
	for _, a := range sampled {
		if !exactScores[a.Score] {
			t.Errorf("sampled survivor has non-exact score %v", a.Score)
		}
	}
}
