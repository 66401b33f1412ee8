package search

import (
	"sort"
	"testing"

	"kbtable/internal/text"
)

func TestTopTreesRanksIndividuals(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	trees, stats := TopTrees(ix, fig1Query, 5, Options{})
	if len(trees) == 0 {
		t.Fatalf("no trees")
	}
	// Scores descending.
	for i := 1; i < len(trees); i++ {
		if trees[i].Score > trees[i-1].Score {
			t.Errorf("trees not sorted at %d", i)
		}
	}
	// Total enumerated must match CountAllCapped.
	_, wantTrees, _ := CountAllCapped(ix, fig1Query, 0)
	if stats.TreesFound != wantTrees {
		t.Errorf("TreesFound = %d, CountAllCapped = %d", stats.TreesFound, wantTrees)
	}
	// Every returned tree's per-path patterns must match its Pattern.
	g := ix.Graph()
	pt := ix.PatternTable()
	for _, rt := range trees {
		for i, p := range rt.Tree.Paths {
			if pt.Intern(p.Pattern(g)) != rt.Pattern.Paths[i] {
				t.Errorf("tree path %d pattern mismatch", i)
			}
		}
		if rt.Score != (Options{}).withDefaults().Scorer.Tree(rt.Tree.Terms) {
			t.Errorf("score mismatch for returned tree")
		}
	}
}

func TestTopTreesBestIsP2Single(t *testing.T) {
	// Individual ranking differs from pattern ranking: T3 (the book tree,
	// score1=7) has per-tree score 10/7 ≈ 1.43 < T1's 1.75, so T1 must be
	// the top individual tree, and every P1/P2 tree must appear in top-3.
	ix, _ := buildFig1Index(t, 3)
	trees, _ := TopTrees(ix, fig1Query, 3, Options{})
	if len(trees) != 3 {
		t.Fatalf("want 3 trees, got %d", len(trees))
	}
	if trees[0].Score < trees[1].Score {
		t.Errorf("ordering broken")
	}
	var scores []float64
	for _, rt := range trees {
		scores = append(scores, rt.Score)
	}
	sort.Float64s(scores)
	if scores[2] != 1.75 {
		t.Errorf("best individual tree should be T1 at 1.75, got %v", scores[2])
	}
}

func TestTopTreesUnknownWord(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	trees, _ := TopTrees(ix, "xyzzy", 5, Options{})
	if len(trees) != 0 {
		t.Errorf("unknown word should yield no trees")
	}
	if ids := wordIDsOf(ix, "xyzzy"); len(ids) != 1 || ids[0] != text.NoWord {
		t.Errorf("resolution should yield NoWord")
	}
}

func TestTopTreesDeterministic(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	a, _ := TopTrees(ix, "database software", 10, Options{})
	b, _ := TopTrees(ix, "database software", 10, Options{})
	if len(a) != len(b) {
		t.Fatalf("sizes differ")
	}
	for i := range a {
		if a[i].Score != b[i].Score || a[i].Tree.Root != b[i].Tree.Root {
			t.Errorf("nondeterministic at %d", i)
		}
	}
}
