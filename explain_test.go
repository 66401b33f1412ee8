package kbtable

import "testing"

func TestExplain(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.Explain("database software company revenue")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Keywords) != 4 || len(ex.Unknown) != 0 {
		t.Errorf("keywords wrong: %+v", ex)
	}
	if ex.CandidateRoots == 0 {
		t.Errorf("want candidate roots > 0")
	}
	if ex.Patterns < 2 {
		t.Errorf("want at least P1 and P2, got %d", ex.Patterns)
	}
	if ex.Subtrees < int64(ex.Patterns) {
		t.Errorf("subtrees (%d) must be >= patterns (%d)", ex.Subtrees, ex.Patterns)
	}
	if ex.Capped {
		t.Errorf("tiny graph must not hit the budget")
	}

	// Answer counts agree with an exhaustive search.
	answers, err := eng.SearchOpts("database software company revenue", SearchOptions{K: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != ex.Patterns {
		t.Errorf("Explain patterns %d != search answers %d", ex.Patterns, len(answers))
	}
}

func TestExplainUnknownWord(t *testing.T) {
	g := buildFig1Public(t)
	eng, err := NewEngine(g, EngineOptions{UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := eng.Explain("database quasar")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Unknown) != 1 || ex.Unknown[0] != "quasar" {
		t.Errorf("unknown words wrong: %+v", ex.Unknown)
	}
	if ex.Patterns != 0 || ex.Subtrees != 0 || ex.CandidateRoots != 0 {
		t.Errorf("query with unknown keyword must count zero: %+v", ex)
	}
}
