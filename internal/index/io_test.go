package index

import (
	"bytes"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

func TestIndexEncodeLoadRoundTrip(t *testing.T) {
	g, nodes := dataset.Fig1()
	ix, err := Build(g, Options{D: 3, UniformPR: true, Synonyms: map[string]string{"corp": "company"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	ix2, err := Load(&buf, g, nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if ix2.D() != ix.D() {
		t.Errorf("D mismatch")
	}
	if ix2.Stats().NumEntries != ix.Stats().NumEntries {
		t.Errorf("entries mismatch: %d vs %d", ix2.Stats().NumEntries, ix.Stats().NumEntries)
	}
	if ix2.Stats().NumPatterns != ix.Stats().NumPatterns {
		t.Errorf("patterns mismatch")
	}

	// Postings identical for a probe word across both index views.
	for _, word := range []string{"database", "revenue", "software", "corp"} {
		w1, _ := ix.Dict().QueryTokens(word)
		w2, _ := ix2.Dict().QueryTokens(word)
		if len(w1) != 1 || len(w2) != 1 || w1[0] != w2[0] {
			t.Fatalf("word %q resolves differently after load", word)
		}
		r1 := ix.Roots(w1[0])
		r2 := ix2.Roots(w2[0])
		if len(r1) != len(r2) {
			t.Fatalf("roots differ for %q", word)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("root %d differs for %q", i, word)
			}
		}
		for _, r := range r1 {
			p1 := ix.PatternsAt(w1[0], r)
			p2 := ix2.PatternsAt(w2[0], r)
			if len(p1) != len(p2) {
				t.Fatalf("patterns at root %d differ for %q", r, word)
			}
			for i := range p1 {
				a := ix.PatternTable().Get(p1[i]).Render(g)
				b := ix2.PatternTable().Get(p2[i]).Render(g)
				if a != b {
					t.Fatalf("pattern %d at root %d differs: %s vs %s", i, r, a, b)
				}
			}
		}
	}
	// Score terms survive.
	w, _ := ix2.Dict().QueryTokens("revenue")
	found := false
	for _, terms := range termsAt(ix2, w[0], nodes.SQLServer) {
		found = true
		if terms.Sim != 1 || terms.Len != 3 {
			t.Errorf("terms wrong after load: %+v", terms)
		}
	}
	if !found {
		t.Errorf("no revenue path at SQL Server after load")
	}
}

func TestIndexSaveLoadFile(t *testing.T) {
	g, _ := dataset.Fig1()
	ix, err := Build(g, Options{D: 2, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/fig1.idx"
	if err := ix.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	ix2, err := LoadFile(path, g, nil)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if ix2.Stats().NumEntries != ix.Stats().NumEntries {
		t.Errorf("roundtrip changed entries")
	}
	if _, err := LoadFile(path+".missing", g, nil); err == nil {
		t.Errorf("missing file should error")
	}
}

func TestIndexLoadRejectsWrongGraph(t *testing.T) {
	g, _ := dataset.Fig1()
	ix, err := Build(g, Options{D: 2, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	other := kg.NewBuilder()
	other.Entity("T", "x")
	g2 := other.MustFreeze()
	if _, err := Load(&buf, g2, nil); err == nil {
		t.Errorf("loading against a different graph must fail")
	}
}

func TestIndexLoadRejectsGarbage(t *testing.T) {
	g, _ := dataset.Fig1()
	if _, err := Load(bytes.NewReader([]byte("not an index stream")), g, nil); err == nil {
		t.Errorf("garbage input must fail")
	}
}

func TestLoadedIndexAnswersQueries(t *testing.T) {
	// End-to-end: a loaded index must answer identically to the built one.
	g, _ := dataset.Fig1()
	ix, err := Build(g, Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := Load(&buf, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"database software", "company revenue"} {
		w1, _ := ix.Dict().QueryTokens(q)
		w2, _ := ix2.Dict().QueryTokens(q)
		for i := range w1 {
			if w1[i] == text.NoWord || w1[i] != w2[i] {
				t.Fatalf("resolution differs for %q", q)
			}
		}
	}
}
