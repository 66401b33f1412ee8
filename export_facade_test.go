package kbtable

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func topAnswer(t *testing.T, eng *Engine) Answer {
	t.Helper()
	answers, err := eng.Search("database software company revenue", 1)
	if err != nil || len(answers) == 0 {
		t.Fatalf("no answers: %v", err)
	}
	return answers[0]
}

func TestAnswerCSV(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	a := topAnswer(t, eng)
	recs, err := csv.NewReader(strings.NewReader(a.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("CSV reparse: %v", err)
	}
	if len(recs) != 3 { // header + 2 rows
		t.Fatalf("CSV rows = %d, want 3", len(recs))
	}
	if recs[0][0] != "Software" {
		t.Errorf("CSV header wrong: %v", recs[0])
	}
}

func TestAnswerJSON(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	a := topAnswer(t, eng)
	var parsed struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(a.JSON()), &parsed); err != nil {
		t.Fatalf("JSON reparse: %v", err)
	}
	if len(parsed.Rows) != 2 || len(parsed.Columns) != 4 {
		t.Errorf("JSON shape wrong: %+v", parsed)
	}
}

func TestAnswerMarkdown(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	a := topAnswer(t, eng)
	md := a.Markdown(-1)
	if !strings.Contains(md, "| SQL Server |") {
		t.Errorf("markdown missing row:\n%s", md)
	}
}

// TestAnswerWithoutFullColumns renders an answer that carries no full
// column names, as one built by hand or decoded from a reply that omits
// the optional full_columns: every renderer writes it under its short
// names.
func TestAnswerWithoutFullColumns(t *testing.T) {
	a := Answer{Rank: 1, Score: 0.5, NumRows: 1, Pattern: "Software", Columns: []string{"Software"}, Rows: [][]string{{"SQL Server"}}}
	if got := a.Render(5); !strings.Contains(got, "Software") || !strings.Contains(got, "SQL Server") {
		t.Errorf("Render:\n%s", got)
	}
	if got, want := a.CSV(), "Software\nSQL Server\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	if got, want := a.JSON(), `{"columns":["Software"],"fullColumns":["Software"],"rows":[["SQL Server"]]}`+"\n"; got != want {
		t.Errorf("JSON = %q, want %q", got, want)
	}
	if got := a.Markdown(-1); !strings.Contains(got, "| Software |") || !strings.Contains(got, "| SQL Server |") {
		t.Errorf("Markdown:\n%s", got)
	}
}

func TestEngineIndexPersistence(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/fig1.idx"
	if err := eng.SaveIndex(path); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	eng2, err := NewEngineFromIndex(g, path, EngineOptions{UniformPageRank: true})
	if err != nil {
		t.Fatalf("NewEngineFromIndex: %v", err)
	}
	a1 := topAnswer(t, eng)
	a2 := topAnswer(t, eng2)
	if a1.Score != a2.Score || a1.NumRows != a2.NumRows {
		t.Errorf("loaded engine answers differently: %v vs %v", a1.Score, a2.Score)
	}
	if len(a1.Rows) != len(a2.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range a1.Rows {
		for j := range a1.Rows[i] {
			if a1.Rows[i][j] != a2.Rows[i][j] {
				t.Errorf("cell (%d,%d) differs", i, j)
			}
		}
	}
	// D mismatch is rejected.
	if _, err := NewEngineFromIndex(g, path, EngineOptions{D: 2}); err == nil {
		t.Errorf("D mismatch should be rejected")
	}
	// Wrong graph is rejected.
	b := NewBuilder()
	b.Entity("T", "only")
	g2, _ := b.Build()
	if _, err := NewEngineFromIndex(g2, path, EngineOptions{}); err == nil {
		t.Errorf("wrong graph should be rejected")
	}
	if _, err := NewEngineFromIndex(nil, path, EngineOptions{}); err == nil {
		t.Errorf("nil graph should be rejected")
	}
}

func TestSearchTreesFacade(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	trees, err := eng.SearchTrees("database software", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) == 0 {
		t.Fatalf("no tree answers")
	}
	for i, ta := range trees {
		if ta.Rank != i+1 {
			t.Errorf("rank %d wrong", i)
		}
		if len(ta.Columns) == 0 || len(ta.Row) != len(ta.Columns) {
			t.Errorf("tree answer table malformed: %+v", ta)
		}
		if i > 0 && ta.Score > trees[i-1].Score {
			t.Errorf("tree answers not sorted")
		}
	}
	// k<=0 defaults sensibly.
	if _, err := eng.SearchTrees("database", 0); err != nil {
		t.Errorf("default k failed: %v", err)
	}
}
