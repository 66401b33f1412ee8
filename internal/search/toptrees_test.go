package search

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/kg"
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
	if ids, _ := ResolveQuery(ix.Dict(), "xyzzy"); len(ids) != 1 || ids[0] != text.NoWord {
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

// treeKey is the tie-break key TopTrees once built for an individual
// subtree — pattern content, then root, then each path's edge IDs, every
// ID as 4 little-endian bytes, each path closed by its edge-end flag —
// kept as the reference CompareTrees must order exactly as.
func treeKey(pt *core.PatternTable, tp core.TreePattern, st core.Subtree) string {
	var sb strings.Builder
	sb.WriteString(tp.ContentKey(pt))
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(st.Root))
	sb.Write(buf[:])
	for _, p := range st.Paths {
		for _, e := range p.Edges {
			binary.LittleEndian.PutUint32(buf[:], uint32(e))
			sb.Write(buf[:])
		}
		if p.EdgeEnd {
			sb.WriteByte(1)
		} else {
			sb.WriteByte(0)
		}
	}
	return sb.String()
}

// TestTreeCompareMatchesTreeKey: over random trees of one query's arity,
// interned in two tables with different PatternID numberings,
// CompareTrees has the sign of strings.Compare over the two treeKeys. IDs
// are drawn around 256 and 65536, where little-endian byte order and
// numeric order disagree, from small pools so that content and roots tie.
func TestTreeCompareMatchesTreeKey(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ids := []uint32{0, 1, 2, 255, 256, 257, 511, 512, 65535, 65536, 65537, 1 << 24}
	id := func() uint32 { return ids[rng.Intn(len(ids))] }
	var pats []core.PathPattern
	for i := 0; i < 6; i++ {
		n := rng.Intn(3)
		p := core.PathPattern{EdgeEnd: rng.Intn(2) == 0}
		p.Types = append(p.Types, kg.TypeID(id()))
		for j := 0; j < n; j++ {
			p.Attrs = append(p.Attrs, kg.AttrID(id()))
			if j < n-1 || !p.EdgeEnd {
				p.Types = append(p.Types, kg.TypeID(id()))
			}
		}
		if n == 0 {
			p.EdgeEnd = false
		}
		pats = append(pats, p)
	}
	pa, pb := core.NewPatternTable(), core.NewPatternTable()
	for i := range pats {
		pa.Intern(pats[i])
		pb.Intern(pats[len(pats)-1-i])
	}
	const m = 3
	tree := func(pt *core.PatternTable) RankedTree {
		var rt RankedTree
		rt.Tree.Root = kg.NodeID(id())
		for i := 0; i < m; i++ {
			p := pats[rng.Intn(3)] // few patterns, so contents tie
			rt.Pattern.Paths = append(rt.Pattern.Paths, pt.Intern(p))
			path := core.Path{Root: rt.Tree.Root, EdgeEnd: p.EdgeEnd}
			for range p.Attrs {
				path.Edges = append(path.Edges, kg.EdgeID(id()))
			}
			rt.Tree.Paths = append(rt.Tree.Paths, path)
		}
		return rt
	}
	var tiedContent, rootOrderDiffers int
	for i := 0; i < 20000; i++ {
		a, b := tree(pa), tree(pb)
		want := strings.Compare(treeKey(pa, a.Pattern, a.Tree), treeKey(pb, b.Pattern, b.Tree))
		if got := CompareTrees(pa, a, pb, b); cmp.Compare(got, 0) != want {
			t.Fatalf("CompareTrees(%+v, %+v) = %d, treeKey order %d", a, b, got, want)
		}
		if a.Pattern.CompareContent(pa, b.Pattern, pb) == 0 {
			tiedContent++
			if (a.Tree.Root < b.Tree.Root) != (want < 0) && a.Tree.Root != b.Tree.Root {
				rootOrderDiffers++
			}
		}
	}
	if tiedContent < 100 || rootOrderDiffers < 10 {
		t.Fatalf("draws too sparse: %d content ties, %d where numeric root order disagrees", tiedContent, rootOrderDiffers)
	}
}
