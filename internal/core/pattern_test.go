package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kbtable/internal/kg"
)

// fig1 builds the knowledge graph of Figure 1(d): SQL Server / Oracle DB /
// their companies and revenues, plus the book path for pattern P2.
// Returns graph and the named node IDs.
func fig1(t testing.TB) (*kg.Graph, map[string]kg.NodeID) {
	t.Helper()
	b := kg.NewBuilder()
	ids := map[string]kg.NodeID{}
	ids["sqlserver"] = b.Entity("Software", "SQL Server")
	ids["reldb"] = b.Entity("Model", "Relational database")
	ids["microsoft"] = b.Entity("Company", "Microsoft")
	ids["msrev"] = b.Entity("Literal", "US$ 77 billion")
	ids["cpp"] = b.Entity("Programming Language", "C++")
	ids["billgates"] = b.Entity("Person", "Bill Gates")
	ids["oracledb"] = b.Entity("Software", "Oracle DB")
	ids["ordb"] = b.Entity("Model", "O-R database")
	ids["oracle"] = b.Entity("Company", "Oracle Corp")
	ids["orev"] = b.Entity("Literal", "US$ 37 billion")
	ids["book"] = b.Entity("Book", "Handbook of Database Systems")
	ids["springer"] = b.Entity("Company", "Springer")
	ids["sprev"] = b.Entity("Literal", "US$ 1 billion")

	b.Attr(ids["sqlserver"], "Genre", ids["reldb"])
	b.Attr(ids["sqlserver"], "Developer", ids["microsoft"])
	b.Attr(ids["sqlserver"], "Written in", ids["cpp"])
	b.Attr(ids["sqlserver"], "Reference", ids["book"])
	b.Attr(ids["microsoft"], "Revenue", ids["msrev"])
	b.Attr(ids["microsoft"], "Founder", ids["billgates"])
	b.Attr(ids["oracledb"], "Genre", ids["ordb"])
	b.Attr(ids["oracledb"], "Developer", ids["oracle"])
	b.Attr(ids["oracledb"], "Written in", ids["cpp"])
	b.Attr(ids["oracle"], "Revenue", ids["orev"])
	b.Attr(ids["book"], "Publisher", ids["springer"])
	b.Attr(ids["springer"], "Revenue", ids["sprev"])
	g, err := b.Freeze()
	if err != nil {
		t.Fatalf("fig1 freeze: %v", err)
	}
	return g, ids
}

// edgeFrom finds the EdgeID from src with the given attribute name.
func edgeFrom(t testing.TB, g *kg.Graph, src kg.NodeID, attr string) kg.EdgeID {
	t.Helper()
	first, n := g.OutEdges(src)
	for i := 0; i < n; i++ {
		e := first + kg.EdgeID(i)
		if g.AttrName(g.Edge(e).Attr) == attr {
			return e
		}
	}
	t.Fatalf("no edge %q from node %d", attr, src)
	return 0
}

func TestPathPatternFromPath(t *testing.T) {
	g, ids := fig1(t)
	// Path for w1="database" in T1: v1 --Genre--> v2 (node match).
	p := Path{Root: ids["sqlserver"], Edges: []kg.EdgeID{edgeFrom(t, g, ids["sqlserver"], "Genre")}}
	pat := p.Pattern(g)
	if got := pat.Render(g); got != "(Software) (Genre) (Model)" {
		t.Errorf("pattern = %q", got)
	}
	if pat.Len() != 2 {
		t.Errorf("Len = %d, want 2", pat.Len())
	}
	if pat.RootType() != g.LookupType("Software") {
		t.Errorf("root type wrong")
	}
}

func TestEdgeEndPattern(t *testing.T) {
	g, ids := fig1(t)
	// Path for w4="revenue" in T1: v1 -Developer-> v3 -Revenue-> (edge match).
	p := Path{
		Root: ids["sqlserver"],
		Edges: []kg.EdgeID{
			edgeFrom(t, g, ids["sqlserver"], "Developer"),
			edgeFrom(t, g, ids["microsoft"], "Revenue"),
		},
		EdgeEnd: true,
	}
	pat := p.Pattern(g)
	if got := pat.Render(g); got != "(Software) (Developer) (Company) (Revenue)" {
		t.Errorf("pattern = %q", got)
	}
	// Example 2.4: the revenue path contributes 3 to score1.
	if pat.Len() != 3 || p.Len() != 3 {
		t.Errorf("Len = %d/%d, want 3/3", pat.Len(), p.Len())
	}
	if p.MatchNode(g) != ids["microsoft"] {
		t.Errorf("MatchNode should be the edge's source")
	}
	if p.Leaf(g) != ids["msrev"] {
		t.Errorf("Leaf should be the edge target")
	}
}

func TestRootOnlyPath(t *testing.T) {
	g, ids := fig1(t)
	p := Path{Root: ids["sqlserver"]}
	pat := p.Pattern(g)
	if pat.Len() != 1 || p.Len() != 1 {
		t.Errorf("root-only path length should be 1")
	}
	if p.MatchNode(g) != ids["sqlserver"] || p.Leaf(g) != ids["sqlserver"] {
		t.Errorf("root-only path match/leaf should be root")
	}
	if got := pat.Render(g); got != "(Software)" {
		t.Errorf("render = %q", got)
	}
}

func TestPatternKeyUniqueness(t *testing.T) {
	g, ids := fig1(t)
	p1 := Path{Root: ids["sqlserver"], Edges: []kg.EdgeID{edgeFrom(t, g, ids["sqlserver"], "Genre")}}
	p2 := Path{Root: ids["sqlserver"], Edges: []kg.EdgeID{edgeFrom(t, g, ids["sqlserver"], "Developer")}}
	p3 := Path{Root: ids["oracledb"], Edges: []kg.EdgeID{edgeFrom(t, g, ids["oracledb"], "Genre")}}
	k1 := p1.Pattern(g).Key()
	k2 := p2.Pattern(g).Key()
	k3 := p3.Pattern(g).Key()
	if k1 == k2 {
		t.Errorf("different attrs must give different keys")
	}
	if k1 != k3 {
		t.Errorf("same type sequence from different roots must give same key")
	}
	// Edge-end and node-end with same types/attrs differ.
	pe := Path{Root: ids["sqlserver"], Edges: p1.Edges, EdgeEnd: true}
	if pe.Pattern(g).Key() == k1 {
		t.Errorf("edge-end flag must distinguish keys")
	}
}

func TestPatternTableIntern(t *testing.T) {
	g, ids := fig1(t)
	pt := NewPatternTable()
	p1 := Path{Root: ids["sqlserver"], Edges: []kg.EdgeID{edgeFrom(t, g, ids["sqlserver"], "Genre")}}.Pattern(g)
	p2 := Path{Root: ids["oracledb"], Edges: []kg.EdgeID{edgeFrom(t, g, ids["oracledb"], "Genre")}}.Pattern(g)
	id1 := pt.Intern(p1)
	id2 := pt.Intern(p2)
	if id1 != id2 {
		t.Errorf("equal patterns should intern to one ID")
	}
	if pt.Len() != 1 {
		t.Errorf("table should hold 1 pattern, has %d", pt.Len())
	}
	got := pt.Get(id1)
	if got.Render(g) != "(Software) (Genre) (Model)" {
		t.Errorf("Get returned wrong pattern")
	}
}

func TestPatternTableConcurrent(t *testing.T) {
	g, ids := fig1(t)
	pt := NewPatternTable()
	pats := []PathPattern{
		Path{Root: ids["sqlserver"]}.Pattern(g),
		Path{Root: ids["sqlserver"], Edges: []kg.EdgeID{edgeFrom(t, g, ids["sqlserver"], "Genre")}}.Pattern(g),
		Path{Root: ids["book"]}.Pattern(g),
	}
	var wg sync.WaitGroup
	ids32 := make([][]PatternID, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ids32[w] = append(ids32[w], pt.Intern(pats[i%len(pats)]))
			}
		}(w)
	}
	wg.Wait()
	if pt.Len() != len(pats) {
		t.Fatalf("expected %d interned patterns, got %d", len(pats), pt.Len())
	}
	for w := 1; w < 8; w++ {
		for i := range ids32[w] {
			if ids32[w][i] != ids32[0][i] {
				t.Fatalf("worker %d interned different ID at %d", w, i)
			}
		}
	}
}

func TestTreePatternKeyAndHeight(t *testing.T) {
	g, ids := fig1(t)
	pt := NewPatternTable()
	genre := pt.Intern(Path{Root: ids["sqlserver"], Edges: []kg.EdgeID{edgeFrom(t, g, ids["sqlserver"], "Genre")}}.Pattern(g))
	root := pt.Intern(Path{Root: ids["sqlserver"]}.Pattern(g))
	rev := pt.Intern(Path{
		Root: ids["sqlserver"],
		Edges: []kg.EdgeID{
			edgeFrom(t, g, ids["sqlserver"], "Developer"),
			edgeFrom(t, g, ids["microsoft"], "Revenue"),
		},
		EdgeEnd: true,
	}.Pattern(g))

	tp1 := TreePattern{Paths: []PatternID{genre, root, rev}}
	tp2 := TreePattern{Paths: []PatternID{genre, root, rev}}
	tp3 := TreePattern{Paths: []PatternID{root, genre, rev}}
	if tp1.Key() != tp2.Key() {
		t.Errorf("equal tree patterns must share key")
	}
	if tp1.Key() == tp3.Key() {
		t.Errorf("keyword order matters for tree patterns")
	}
	if h := tp1.Height(pt); h != 3 {
		t.Errorf("Height = %d, want 3", h)
	}
	if tp1.RootType(pt) != g.LookupType("Software") {
		t.Errorf("RootType wrong")
	}
	r := tp1.Render(g, pt, []string{"database", "software", "revenue"})
	if !strings.Contains(r, "database: (Software) (Genre) (Model)") {
		t.Errorf("Render missing line: %s", r)
	}
}

func TestPathNodes(t *testing.T) {
	g, ids := fig1(t)
	p := Path{
		Root: ids["sqlserver"],
		Edges: []kg.EdgeID{
			edgeFrom(t, g, ids["sqlserver"], "Developer"),
			edgeFrom(t, g, ids["microsoft"], "Revenue"),
		},
		EdgeEnd: true,
	}
	nodes := p.Nodes(g)
	want := []kg.NodeID{ids["sqlserver"], ids["microsoft"], ids["msrev"]}
	if len(nodes) != 3 || nodes[0] != want[0] || nodes[1] != want[1] || nodes[2] != want[2] {
		t.Errorf("Nodes = %v, want %v", nodes, want)
	}
}

// TestPatternTableReadWhileInterning pins the lock-free read side: readers
// Get and ContentKey IDs they already hold while a writer keeps interning
// new patterns (growing, and so republishing, the table). Under -race this
// fails on any read that is not ordered after the entry's publication; the
// values must stay the ones interned.
func TestPatternTableReadWhileInterning(t *testing.T) {
	mk := func(i int) PathPattern {
		return PathPattern{Types: []kg.TypeID{kg.TypeID(i % 7), kg.TypeID(i)}, Attrs: []kg.AttrID{kg.AttrID(i / 7)}}
	}
	pt := NewPatternTable()
	const held = 16
	want := make([]string, held)
	for i := 0; i < held; i++ {
		if id := pt.Intern(mk(i)); int(id) != i {
			t.Fatalf("Intern(%d) = %d", i, id)
		}
		want[i] = mk(i).Key()
	}
	tp := TreePattern{Paths: []PatternID{3, 0, 15}}
	wantKey := tp.ContentKey(pt)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				id := PatternID(i % held)
				if got := pt.Get(id).Key(); got != want[id] {
					t.Errorf("Get(%d) changed while interning", id)
					return
				}
				if tp.ContentKey(pt) != wantKey {
					t.Errorf("ContentKey changed while interning")
					return
				}
				if pt.Len() < held {
					t.Errorf("Len shrank to %d", pt.Len())
					return
				}
			}
		}(r)
	}
	for i := held; i < held+5000; i++ {
		if id := pt.Intern(mk(i)); int(id) != i {
			t.Errorf("Intern(%d) = %d", i, id)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := pt.Snapshot(); len(got) != pt.Len() || got[held].Key() != mk(held).Key() {
		t.Errorf("Snapshot disagrees with the table")
	}
}

// TestContentKeyMatchesPatternKeys pins ContentKey's format — each path
// pattern's Key, length-prefixed — now that it is assembled from keys
// stored at Intern rather than recomputed: shard gathers and goldens
// depend on these bytes.
func TestContentKeyMatchesPatternKeys(t *testing.T) {
	pt := NewPatternTable()
	var tp TreePattern
	var want strings.Builder
	for i := 0; i < 5; i++ {
		p := PathPattern{Types: make([]kg.TypeID, i+1), Attrs: make([]kg.AttrID, i), EdgeEnd: i%2 == 1}
		if p.EdgeEnd {
			p.Attrs = append(p.Attrs, kg.AttrID(i))
		}
		tp.Paths = append(tp.Paths, pt.Intern(p))
		k := p.Key()
		want.WriteByte(byte(len(k)))
		want.WriteByte(byte(len(k) >> 8))
		want.WriteString(k)
	}
	if got := tp.ContentKey(pt); got != want.String() {
		t.Errorf("ContentKey = %q, want %q", got, want.String())
	}
}

// TestPatternTableForkIsolation: two forks of one table intern different
// new patterns, concurrently with each other and with readers of the
// parent. The parent and the sibling never see them, and the IDs all three
// share keep their entries.
func TestPatternTableForkIsolation(t *testing.T) {
	pat := func(i int) PathPattern { return PathPattern{Types: []kg.TypeID{kg.TypeID(i)}} }
	const base = 16
	parent := NewPatternTable()
	for i := 0; i < base; i++ {
		parent.Intern(pat(i))
	}
	forks := []*PatternTable{parent.Fork(), parent.Fork()}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < base; i++ {
					if id, ok := parent.Lookup(pat(i)); !ok || id != PatternID(i) || parent.Get(id).Key() != pat(i).Key() {
						t.Errorf("parent lost pattern %d (id %d, %v)", i, id, ok)
						return
					}
				}
				if _, ok := parent.Lookup(pat(1000)); ok || parent.Len() != base {
					t.Errorf("a fork's pattern reached the parent (len %d)", parent.Len())
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for f, ft := range forks {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 64; i++ {
				if id := ft.Intern(pat(1000*(f+1) + i)); id != PatternID(base+i) {
					t.Errorf("fork %d: new pattern %d got id %d", f, i, id)
				}
				if id := ft.Intern(pat(i % base)); id != PatternID(i%base) {
					t.Errorf("fork %d: re-interning pattern %d gave id %d", f, i%base, id)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	for f, ft := range forks {
		if ft.Len() != base+64 {
			t.Fatalf("fork %d holds %d patterns, want %d", f, ft.Len(), base+64)
		}
		for i := 0; i < base; i++ {
			if ft.Get(PatternID(i)).Key() != pat(i).Key() {
				t.Fatalf("fork %d: shared id %d changed its entry", f, i)
			}
		}
		if _, ok := ft.Lookup(pat(1000*(2-f) + 3)); ok {
			t.Fatalf("fork %d sees its sibling's pattern", f)
		}
	}
	for _, p := range []PathPattern{pat(1000), pat(2000)} {
		if _, ok := parent.Lookup(p); ok {
			t.Fatal("parent sees a fork's pattern")
		}
	}
	if got := forks[0].Fork().Intern(pat(1001)); got != base+1 {
		t.Fatalf("a fork of a fork renumbered pattern 1001 to %d", got)
	}
}
