package kg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildTiny builds a 4-node graph:
//
//	s(Software) --Developer--> c(Company) --Revenue--> r(Literal "US$ 77 billion")
//	s(Software) --Genre-->     m(Model "Relational database")
func buildTiny(t *testing.T) (*Graph, NodeID, NodeID, NodeID, NodeID) {
	t.Helper()
	b := NewBuilder()
	s := b.Entity("Software", "SQL Server")
	c := b.Entity("Company", "Microsoft")
	m := b.Entity("Model", "Relational database")
	b.Attr(s, "Developer", c)
	b.Attr(s, "Genre", m)
	r := b.TextAttr(c, "Revenue", "US$ 77 billion")
	g, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return g, s, c, m, r
}

func TestBuilderBasics(t *testing.T) {
	g, s, c, m, r := buildTiny(t)
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.TypeName(g.Type(s)) != "Software" {
		t.Errorf("type of s = %q", g.TypeName(g.Type(s)))
	}
	if g.Type(r) != LiteralType {
		t.Errorf("text attr node should have LiteralType, got %d", g.Type(r))
	}
	if g.Text(r) != "US$ 77 billion" {
		t.Errorf("literal text = %q", g.Text(r))
	}
	if g.Text(c) != "Microsoft" || g.Text(m) != "Relational database" {
		t.Errorf("entity text wrong")
	}
}

func TestOutEdgesCSR(t *testing.T) {
	g, s, c, m, r := buildTiny(t)
	out := g.OutEdgeSlice(s)
	if len(out) != 2 {
		t.Fatalf("s should have 2 out-edges, got %d", len(out))
	}
	// Insertion order preserved: Developer then Genre.
	if g.AttrName(out[0].Attr) != "Developer" || out[0].Dst != c {
		t.Errorf("first out-edge wrong: %+v", out[0])
	}
	if g.AttrName(out[1].Attr) != "Genre" || out[1].Dst != m {
		t.Errorf("second out-edge wrong: %+v", out[1])
	}
	if g.OutDegree(r) != 0 {
		t.Errorf("literal node should have no out-edges")
	}
	first, n := g.OutEdges(s)
	if n != 2 || g.Edge(first) != out[0] {
		t.Errorf("OutEdges range inconsistent with OutEdgeSlice")
	}
}

func TestInEdgesCSR(t *testing.T) {
	g, s, c, _, r := buildTiny(t)
	in := g.InEdgeIDs(c)
	if len(in) != 1 {
		t.Fatalf("c should have 1 in-edge, got %d", len(in))
	}
	e := g.Edge(in[0])
	if e.Src != s || e.Dst != c {
		t.Errorf("in-edge of c wrong: %+v", e)
	}
	if len(g.InEdgeIDs(s)) != 0 {
		t.Errorf("s should have no in-edges")
	}
	if len(g.InEdgeIDs(r)) != 1 {
		t.Errorf("r should have 1 in-edge")
	}
}

func TestNodesByType(t *testing.T) {
	g, s, _, _, r := buildTiny(t)
	sw := g.NodesOfType(g.LookupType("Software"))
	if len(sw) != 1 || sw[0] != s {
		t.Errorf("NodesOfType(Software) = %v", sw)
	}
	lits := g.NodesOfType(LiteralType)
	if len(lits) != 1 || lits[0] != r {
		t.Errorf("NodesOfType(Literal) = %v", lits)
	}
}

func TestLookupHelpers(t *testing.T) {
	g, _, _, _, _ := buildTiny(t)
	if g.LookupType("Software") < 0 || g.LookupType("Nope") != -1 {
		t.Errorf("LookupType wrong")
	}
	if g.LookupAttr("Developer") < 0 || g.LookupAttr("Nope") != -1 {
		t.Errorf("LookupAttr wrong")
	}
}

func TestFreezeRejectsBadEdges(t *testing.T) {
	b := NewBuilder()
	v := b.Entity("T", "x")
	b.AttrT(v, b.AttrID("a"), NodeID(99))
	if _, err := b.Freeze(); err == nil {
		t.Errorf("Freeze should reject out-of-range edge")
	}
}

func TestMultiValuedAttributes(t *testing.T) {
	b := NewBuilder()
	ms := b.Entity("Company", "Microsoft")
	w := b.Entity("Software", "Windows")
	bing := b.Entity("Software", "Bing")
	b.Attr(ms, "Products", w)
	b.Attr(ms, "Products", bing)
	g := b.MustFreeze()
	out := g.OutEdgeSlice(ms)
	if len(out) != 2 || out[0].Attr != out[1].Attr {
		t.Fatalf("multi-valued attribute should yield two edges of same attr: %+v", out)
	}
	if out[0].Dst != w || out[1].Dst != bing {
		t.Errorf("edge order should follow insertion order")
	}
}

func TestGobRoundTrip(t *testing.T) {
	g, _, _, _, _ := buildTiny(t)
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	g2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip size mismatch")
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Text(v) != g2.Text(v) || g.Type(v) != g2.Type(v) {
			t.Errorf("node %d mismatch after roundtrip", v)
		}
		if !reflect.DeepEqual(g.OutEdgeSlice(v), g2.OutEdgeSlice(v)) {
			t.Errorf("out-edges of %d mismatch", v)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g, _, _, _, _ := buildTiny(t)
	path := t.TempDir() + "/g.gob"
	if err := g.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g2.String() != g.String() {
		t.Errorf("stats mismatch: %s vs %s", g2, g)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Errorf("LoadFile of missing file should error")
	}
}

func TestInduceSubgraph(t *testing.T) {
	g, s, c, m, r := buildTiny(t)
	// Keep s and c: only the Developer edge survives.
	sub, remap := Induce(g, []NodeID{c, s, s}) // dup + unordered on purpose
	if sub.NumNodes() != 2 {
		t.Fatalf("induced nodes = %d, want 2", sub.NumNodes())
	}
	if sub.NumEdges() != 1 {
		t.Fatalf("induced edges = %d, want 1", sub.NumEdges())
	}
	ns, ok1 := remap[s]
	nc, ok2 := remap[c]
	if !ok1 || !ok2 {
		t.Fatalf("remap missing entries: %v", remap)
	}
	e := sub.OutEdgeSlice(ns)
	if len(e) != 1 || e[0].Dst != nc || sub.AttrName(e[0].Attr) != "Developer" {
		t.Errorf("induced edge wrong: %+v", e)
	}
	if _, ok := remap[m]; ok {
		t.Errorf("m should not be in remap")
	}
	_ = r
	// Types and attrs tables are shared.
	if sub.NumTypes() != g.NumTypes() || sub.NumAttrs() != g.NumAttrs() {
		t.Errorf("type/attr tables should carry over")
	}
}

func TestInduceEmpty(t *testing.T) {
	g, _, _, _, _ := buildTiny(t)
	sub, remap := Induce(g, nil)
	if sub.NumNodes() != 0 || sub.NumEdges() != 0 || len(remap) != 0 {
		t.Errorf("empty induce should be empty graph")
	}
}

// TestCSRInvariant checks on random graphs that every edge appears exactly
// once in its source's out-list and once in its destination's in-list.
func TestCSRInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			b.Entity("T", "node")
		}
		en := rng.Intn(120)
		type key struct{ s, d NodeID }
		want := map[key]int{}
		for i := 0; i < en; i++ {
			s := NodeID(rng.Intn(n))
			d := NodeID(rng.Intn(n))
			b.Attr(s, "a", d)
			want[key{s, d}]++
		}
		g := b.MustFreeze()
		gotOut := map[key]int{}
		for v := NodeID(0); int(v) < n; v++ {
			for _, e := range g.OutEdgeSlice(v) {
				if e.Src != v {
					return false
				}
				gotOut[key{e.Src, e.Dst}]++
			}
		}
		gotIn := map[key]int{}
		for v := NodeID(0); int(v) < n; v++ {
			for _, id := range g.InEdgeIDs(v) {
				e := g.Edge(id)
				if e.Dst != v {
					return false
				}
				gotIn[key{e.Src, e.Dst}]++
			}
		}
		return reflect.DeepEqual(want, gotOut) && reflect.DeepEqual(want, gotIn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
