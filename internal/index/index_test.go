package index

import (
	"sort"
	"strings"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// buildFig1 builds the Figure 1 index with uniform PageRank (Example 2.4's
// assumption) at the given height threshold.
func buildFig1(t testing.TB, d int) (*Index, *kg.Graph, dataset.Fig1Nodes) {
	t.Helper()
	g, nodes := dataset.Fig1()
	ix, err := Build(g, Options{D: d, UniformPR: true, Workers: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, g, nodes
}

// wordID resolves a query word to its canonical id, failing if absent.
func wordID(t testing.TB, ix *Index, w string) text.WordID {
	t.Helper()
	ids, _ := ix.Dict().QueryTokens(w)
	if len(ids) != 1 || ids[0] == text.NoWord {
		t.Fatalf("word %q not found in index", w)
	}
	return ids[0]
}

// renderPatterns renders pattern IDs for readable assertions.
// runPF is the pattern-first posting run Paths(w, P, r), empty when absent.
func runPF(ix *Index, w text.WordID, p core.PatternID, r kg.NodeID) PathSet {
	g, ok := ix.Group(w, p)
	if !ok {
		return PathSet{}
	}
	c := g.Cursor()
	ps, _ := c.Seek(r)
	return ps
}

// termsAt collects the score terms of root-first Paths(w, r) in (pattern,
// path) order.
func termsAt(ix *Index, w text.WordID, r kg.NodeID) []core.ScoreTerms {
	var out []core.ScoreTerms
	for _, ps := range ix.RunsAt(nil, w, r) {
		out = ps.AppendTerms(out)
	}
	return out
}

func renderPatterns(ix *Index, ids []core.PatternID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = ix.PatternTable().Get(id).Render(ix.Graph())
	}
	sort.Strings(out)
	return out
}

func TestBuildRejectsBadOptions(t *testing.T) {
	g, _ := dataset.Fig1()
	if _, err := Build(g, Options{D: 0}); err == nil {
		t.Errorf("D=0 must be rejected")
	}
	if _, err := Build(g, Options{D: 2, PageRank: []float64{1}}); err == nil {
		t.Errorf("wrong-size PageRank vector must be rejected")
	}
}

func TestFigure5PatternsForDatabase(t *testing.T) {
	// Figure 5: for word "database" with d=2 the patterns include
	// (Software)(Genre)(Model), (Software)(Reference)(Book), and (Book).
	ix, _, _ := buildFig1(t, 2)
	w := wordID(t, ix, "database")
	got := renderPatterns(ix, ix.Patterns(w))
	want := map[string]bool{
		"(Software) (Genre) (Model)":    false,
		"(Software) (Reference) (Book)": false,
		"(Book)":                        false,
		"(Model)":                       false, // the Model nodes themselves
	}
	for _, p := range got {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("missing pattern %s in %v", p, got)
		}
	}
}

func TestFigure5RootsAndPaths(t *testing.T) {
	ix, g, nodes := buildFig1(t, 2)
	w := wordID(t, ix, "database")

	// Roots(w, (Software)(Reference)(Book)) = {v1} (SQL Server).
	var refBook core.PatternID = -1
	for _, pid := range ix.Patterns(w) {
		if ix.PatternTable().Get(pid).Render(g) == "(Software) (Reference) (Book)" {
			refBook = pid
		}
	}
	if refBook < 0 {
		t.Fatalf("pattern not found")
	}
	roots := ix.RootsOf(w, refBook)
	if len(roots) != 1 || roots[0] != nodes.SQLServer {
		t.Errorf("Roots = %v, want [SQLServer=%d]", roots, nodes.SQLServer)
	}

	// Root-first: Roots(w) = {v1, v7, v12} plus the Model literals
	// (Relational database / O-R database nodes contain "database" too).
	all := ix.Roots(w)
	mustContain := []kg.NodeID{nodes.SQLServer, nodes.OracleDB, nodes.Book, nodes.RelDB, nodes.ORDB}
	for _, r := range mustContain {
		if !containsNode(all, r) {
			t.Errorf("Roots(database) missing node %d; got %v", r, all)
		}
	}
	// Paths(w, v1, (Software)(Genre)(Model)) returns exactly one path v1v2.
	var genreModel core.PatternID = -1
	for _, pid := range ix.PatternsAt(w, nodes.SQLServer) {
		if ix.PatternTable().Get(pid).Render(g) == "(Software) (Genre) (Model)" {
			genreModel = pid
		}
	}
	if genreModel < 0 {
		t.Fatalf("root-first PatternsAt missing (Software)(Genre)(Model); got %v",
			renderPatterns(ix, ix.PatternsAt(w, nodes.SQLServer)))
	}
	count := 0
	for _, ps := range ix.RunsAt(nil, w, nodes.SQLServer) {
		if ps.Pattern() != genreModel {
			continue
		}
		for k := 0; k < ps.Len(); k++ {
			count++
			p := ps.Path(k)
			if p.Root != nodes.SQLServer || p.Leaf(g) != nodes.RelDB {
				t.Errorf("path wrong: %+v", p)
			}
		}
	}
	if count != 1 {
		t.Errorf("Paths(database, v1, genre-model) = %d paths, want 1", count)
	}
}

func TestEdgeMatchIndexed(t *testing.T) {
	// "revenue" only occurs as an attribute type: all entries are edge-end.
	ix, g, nodes := buildFig1(t, 3)
	w := wordID(t, ix, "revenue")
	pats := ix.Patterns(w)
	if len(pats) == 0 {
		t.Fatalf("no patterns for revenue")
	}
	for _, pid := range pats {
		if !ix.PatternTable().Get(pid).EdgeEnd {
			t.Errorf("revenue pattern should be edge-end: %s", ix.PatternTable().Get(pid).Render(g))
		}
	}
	// With d=3 the pattern (Software)(Developer)(Company)(Revenue) exists
	// with roots {v1, v7}.
	var target core.PatternID = -1
	for _, pid := range pats {
		if ix.PatternTable().Get(pid).Render(g) == "(Software) (Developer) (Company) (Revenue)" {
			target = pid
		}
	}
	if target < 0 {
		t.Fatalf("missing d=3 revenue pattern; got %v", renderPatterns(ix, pats))
	}
	roots := ix.RootsOf(w, target)
	if len(roots) != 2 || roots[0] != nodes.SQLServer || roots[1] != nodes.OracleDB {
		t.Errorf("roots = %v, want [%d %d]", roots, nodes.SQLServer, nodes.OracleDB)
	}
	// Entry score terms: Len counts the literal target (3 nodes per
	// Example 2.4), Sim = 1 (single-token attribute "Revenue").
	ps := runPF(ix, w, target, nodes.SQLServer)
	if ps.Len() != 1 {
		t.Fatalf("paths = %d, want 1", ps.Len())
	}
	if terms := ps.AppendTerms(nil)[0]; terms.Len != 3 || terms.Sim != 1 || terms.PR != 1 {
		t.Errorf("terms = %+v", terms)
	}
	p := ps.Path(0)
	if !p.EdgeEnd || p.MatchNode(g) != nodes.Microsoft || p.Leaf(g) != nodes.MSRevenue {
		t.Errorf("edge path wrong: %+v", p)
	}
}

func TestHeightThresholdRespected(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		ix, _, _ := buildFig1(t, d)
		for w := 0; w < ix.Dict().Len(); w++ {
			for _, pid := range ix.Patterns(text.WordID(w)) {
				if l := ix.PatternTable().Get(pid).Len(); l > d {
					t.Errorf("d=%d: pattern of length %d indexed", d, l)
				}
			}
		}
	}
}

func TestD1OnlyRootMatches(t *testing.T) {
	ix, _, _ := buildFig1(t, 1)
	w := wordID(t, ix, "database")
	for _, pid := range ix.Patterns(w) {
		p := ix.PatternTable().Get(pid)
		if p.Len() != 1 || p.EdgeEnd {
			t.Errorf("d=1 should only index root-only node matches, got %s", p.Render(ix.Graph()))
		}
	}
	// "revenue" (attribute-only) has no postings at d=1.
	ids, _ := ix.Dict().QueryTokens("revenue")
	if len(ids) == 1 && ids[0] != text.NoWord {
		if len(ix.Patterns(ids[0])) != 0 {
			t.Errorf("revenue should have no patterns at d=1")
		}
	}
}

func TestIndexSizeGrowsWithD(t *testing.T) {
	var prev int64
	for _, d := range []int{1, 2, 3, 4} {
		ix, _, _ := buildFig1(t, d)
		s := ix.Stats()
		if s.NumEntries <= 0 || s.Bytes <= 0 {
			t.Fatalf("d=%d: empty stats %+v", d, s)
		}
		if s.NumEntries < prev {
			t.Errorf("entries should not shrink as d grows: d=%d has %d < %d", d, s.NumEntries, prev)
		}
		prev = s.NumEntries
	}
}

// TestResidentBytesPerEntry pins the columnar layout's resident cost on
// the SynthWiki 2000/40 corpus: well under the ~97 B/entry the
// row-oriented layout measured there (the benchmark's
// resident_index_bytes_per_entry tracks the same number at its scale).
func TestResidentBytesPerEntry(t *testing.T) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 2000, Types: 40, Seed: 1})
	ix, err := Build(g, Options{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.NumEntries == 0 || st.Bytes == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if bpe := st.BytesPerEntry(); bpe <= 0 || bpe >= 80 {
		t.Errorf("resident %.1f B/entry, want under 80", bpe)
	}
}

func TestTypeVsTextSimMax(t *testing.T) {
	// "software" appears in the type "Software" (1 token, sim 1); for the
	// SQL Server root entry, sim must be 1 even though it is absent from
	// the node text.
	ix, _, nodes := buildFig1(t, 1)
	w := wordID(t, ix, "software")
	found := false
	for _, terms := range termsAt(ix, w, nodes.SQLServer) {
		found = true
		if terms.Sim != 1 {
			t.Errorf("sim for type-matched 'software' = %v, want 1", terms.Sim)
		}
	}
	if !found {
		t.Errorf("no root-only entry for software at SQL Server")
	}
	// "server" appears only in the node text "SQL Server" (2 tokens): 1/2.
	ws := wordID(t, ix, "server")
	for _, terms := range termsAt(ix, ws, nodes.SQLServer) {
		if terms.Sim != 0.5 {
			t.Errorf("sim for text-matched 'server' = %v, want 0.5", terms.Sim)
		}
	}
}

func TestStemmedQueryReachesPostings(t *testing.T) {
	// Corpus has "database"; query "databases" must reach the same postings.
	ix, _, _ := buildFig1(t, 2)
	ids, _ := ix.Dict().QueryTokens("databases")
	if len(ids) != 1 || ids[0] == text.NoWord {
		t.Fatalf("stemmed lookup failed")
	}
	if len(ix.Roots(ids[0])) == 0 {
		t.Errorf("no roots via stemmed form")
	}
}

// TestWordSimsPaperExamples pins score3's sim(w, text) as the index
// computes it: 1/|token set| for every distinct canonical word of the
// text (Example 2.4: sim("database", "Relational database") = 1/2), with
// repeated tokens and words sharing a stem counted once. A corpus of a
// dictionary decoded with an index (CorpusOf) interns nothing: a word the
// dictionary lacks fails it, by name.
func TestWordSimsPaperExamples(t *testing.T) {
	d := text.NewDict()
	c := &Corpus{dict: d}
	wordSims := func(_ *text.Dict, s string) []wordSim { return c.sims(s, 0) }
	sims := func(s string) map[string]float64 {
		out := map[string]float64{}
		for _, ws := range wordSims(d, s) {
			out[d.Word(ws.Word)] = ws.Sim
		}
		return out
	}
	if got := sims("Relational database"); len(got) != 2 || got[text.Stem("database")] != 0.5 {
		t.Errorf("sims(Relational database) = %v, want 2 words at 1/2", got)
	}
	if got := sims("Handbook of Database Systems and Applications x"); len(got) != 7 || got[text.Stem("database")] != 1.0/7 {
		t.Errorf("sims of a seven-token text = %v, want 7 words at 1/7", got)
	}
	if got := sims("Software"); got[text.Stem("software")] != 1 {
		t.Errorf("sims(Software) = %v, want software at 1", got)
	}
	if got := wordSims(d, "Movies and movie"); len(got) != 2 {
		t.Errorf("wordSims(Movies and movie) = %v, want 2 ids (movies and movie share a stem)", got)
	}
	if got := wordSims(d, " ,; "); got != nil {
		t.Errorf("wordSims of a text without tokens = %v, want nil", got)
	}
	d.Intern("thing")
	n := d.Len()
	b := kg.NewBuilder()
	b.Entity("Thing", "software zeta")
	if _, err := CorpusOf(b.MustFreeze(), d); err == nil || d.Len() != n || !strings.Contains(err.Error(), `"zeta"`) {
		t.Errorf("CorpusOf with a word the dictionary lacks: %v (dictionary %d -> %d words); want zeta reported, nothing interned", err, n, d.Len())
	}
}

func TestSynonyms(t *testing.T) {
	g, _ := dataset.Fig1()
	ix, err := Build(g, Options{D: 2, UniformPR: true, Synonyms: map[string]string{"corporation": "company"}})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ids, _ := ix.Dict().QueryTokens("corporation")
	if len(ids) != 1 || ids[0] == text.NoWord {
		t.Fatalf("synonym not interned")
	}
	if len(ix.Roots(ids[0])) == 0 {
		t.Errorf("synonym should reach company postings")
	}
}

func TestUnknownWordHasNoPostings(t *testing.T) {
	ix, _, _ := buildFig1(t, 2)
	if ix.Patterns(text.NoWord) != nil {
		t.Errorf("NoWord should have nil patterns")
	}
	if ix.Roots(text.WordID(999999)) != nil {
		t.Errorf("out-of-range word should have nil roots")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g, _ := dataset.Fig1()
	ix1, err := Build(g, Options{D: 3, UniformPR: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Build(g, Options{D: 3, UniformPR: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix1.Stats().NumEntries != ix2.Stats().NumEntries {
		t.Fatalf("entry counts differ: %d vs %d", ix1.Stats().NumEntries, ix2.Stats().NumEntries)
	}
	w1 := wordID(t, ix1, "database")
	w2 := wordID(t, ix2, "database")
	r1 := ix1.Roots(w1)
	r2 := ix2.Roots(w2)
	if len(r1) != len(r2) {
		t.Fatalf("roots differ: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("root order differs at %d", i)
		}
	}
	// Same paths per root and pattern, in the same order.
	for _, r := range r1 {
		p1 := renderPatterns(ix1, ix1.PatternsAt(w1, r))
		p2 := renderPatterns(ix2, ix2.PatternsAt(w2, r))
		if len(p1) != len(p2) {
			t.Fatalf("patterns at root %d differ", r)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("pattern %d at root %d differs: %s vs %s", i, r, p1[i], p2[i])
			}
		}
	}
}

func TestNumPathsAtMatchesEnumeration(t *testing.T) {
	ix, _, _ := buildFig1(t, 3)
	w := wordID(t, ix, "database")
	for _, r := range ix.Roots(w) {
		n := len(termsAt(ix, w, r))
		if got := ix.NumPathsAt(w, r); got != n {
			t.Errorf("NumPathsAt(%d) = %d, enumeration = %d", r, got, n)
		}
	}
	if ix.NumPathsAt(w, kg.NodeID(9999)) != 0 {
		t.Errorf("unknown root should count 0")
	}
}

func TestSimplePathsNoCycles(t *testing.T) {
	// r <-> a two-cycle: indexed paths must never revisit a node.
	b := kg.NewBuilder()
	r := b.Entity("T", "alpha")
	a := b.Entity("U", "beta")
	b.Attr(r, "x", a)
	b.Attr(a, "y", r)
	g := b.MustFreeze()
	ix, err := Build(g, Options{D: 4, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	w := wordID(t, ix, "alpha")
	for _, pid := range ix.Patterns(w) {
		if l := ix.PatternTable().Get(pid).Len(); l > 2 {
			t.Errorf("cycle produced pattern of length %d: %s", l, ix.PatternTable().Get(pid).Render(g))
		}
	}
}

func containsNode(s []kg.NodeID, v kg.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
