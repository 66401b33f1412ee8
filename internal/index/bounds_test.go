package index

import (
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/text"
)

// TestPatternBoundsCoverEntries verifies, exhaustively on two corpora,
// that every (word, pattern) posting group's PatternBounds actually bound
// the group's entries: term ranges contain every path's terms, and MaxRun
// dominates every root's path count. The streaming executor's pruning is
// only sound if these invariants hold for every construction path, so the
// synthetic corpus goes through Build with real (non-uniform) PageRank.
func TestPatternBoundsCoverEntries(t *testing.T) {
	fig1, _, _ := buildFig1(t, 3)
	wiki := dataset.SynthWiki(dataset.WikiConfig{Entities: 120, Types: 10, Seed: 7})
	wikiIx, err := Build(wiki, Options{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Index{"fig1": fig1, "wiki": wikiIx} {
		checked := 0
		for w := text.WordID(0); int(w) < ix.Dict().Len(); w++ {
			for _, p := range ix.Patterns(w) {
				b, ok := ix.PatternBounds(w, p)
				if !ok {
					t.Fatalf("%s: pattern %d listed for word %d but has no bounds", name, p, w)
				}
				if b.MaxRun < 1 {
					t.Fatalf("%s: nonempty group has MaxRun %d", name, b.MaxRun)
				}
				for _, r := range ix.RootsOf(w, p) {
					ps := runPF(ix, w, p, r)
					if ps.Len() == 0 || ps.Len() > b.MaxRun {
						t.Fatalf("%s: run length %d outside (0, MaxRun=%d]", name, ps.Len(), b.MaxRun)
					}
					for _, terms := range ps.AppendTerms(nil) {
						if terms.Len < b.MinLen || terms.Len > b.MaxLen {
							t.Fatalf("%s: Len %d outside [%d, %d]", name, terms.Len, b.MinLen, b.MaxLen)
						}
						if terms.PR < b.MinPR || terms.PR > b.MaxPR {
							t.Fatalf("%s: PR %v outside [%v, %v]", name, terms.PR, b.MinPR, b.MaxPR)
						}
						if terms.Sim < b.MinSim || terms.Sim > b.MaxSim {
							t.Fatalf("%s: Sim %v outside [%v, %v]", name, terms.Sim, b.MinSim, b.MaxSim)
						}
					}
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no posting groups checked", name)
		}
	}
}

// TestPatternBoundsUnknown pins the miss paths: unknown words and patterns
// the word never reaches report no bounds instead of zero-valued ones.
func TestPatternBoundsUnknown(t *testing.T) {
	ix, _, _ := buildFig1(t, 3)
	if _, ok := ix.PatternBounds(text.WordID(1_000_000), 0); ok {
		t.Errorf("out-of-range word should have no bounds")
	}
	w := wordID(t, ix, "database")
	reached := map[core.PatternID]bool{}
	for _, p := range ix.Patterns(w) {
		reached[p] = true
	}
	for p := 0; p < ix.PatternTable().Len(); p++ {
		if id := core.PatternID(p); !reached[id] {
			if _, ok := ix.PatternBounds(w, id); ok {
				t.Errorf("pattern %d not reached by word but reported bounds", p)
			}
			return
		}
	}
}
