package kg

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// fig1Builder assembles the paper's Figure 1 mini KB.
func fig1Builder() (*Builder, map[string]NodeID) {
	b := NewBuilder()
	ids := map[string]NodeID{}
	ids["sql"] = b.Entity("Software", "SQL Server")
	ids["rel"] = b.Entity("Model", "Relational database")
	ids["ms"] = b.Entity("Company", "Microsoft")
	ids["gates"] = b.Entity("Person", "Bill Gates")
	b.Attr(ids["sql"], "Genre", ids["rel"])
	b.Attr(ids["sql"], "Developer", ids["ms"])
	ids["rev"] = b.TextAttr(ids["ms"], "Revenue", "US$ 77 billion")
	b.Attr(ids["ms"], "Founder", ids["gates"])
	return b, ids
}

func TestDeltaAddAndRemove(t *testing.T) {
	b, ids := fig1Builder()
	g := b.MustFreeze()

	d := NewDelta(g)
	oracle, err := d.AddEntity("Company", "Oracle Corp")
	if err != nil {
		t.Fatal(err)
	}
	odb, err := d.AddEntity("Software", "Oracle DB")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddAttr(odb, "Developer", oracle); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddTextAttr(oracle, "Revenue", "US$ 37 billion"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RemoveEdge(ids["sql"], "Genre", ids["rel"]); err != nil {
		t.Fatal(err)
	}
	if err := d.SetText(ids["gates"], "William Gates III"); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	ng := ch.New

	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("base graph mutated: %v", g)
	}
	if ng.NumNodes() != 8 { // 5 + oracle + odb + revenue literal
		t.Fatalf("new graph has %d nodes, want 8", ng.NumNodes())
	}
	if ng.NumEdges() != 5 { // 4 - Genre + Developer + Revenue
		t.Fatalf("new graph has %d edges, want 5", ng.NumEdges())
	}
	if ng.Text(ids["gates"]) != "William Gates III" {
		t.Fatalf("retext lost: %q", ng.Text(ids["gates"]))
	}
	if got := ng.Text(oracle); got != "Oracle Corp" {
		t.Fatalf("new node text %q", got)
	}
	// Surviving nodes keep IDs and types.
	for name, id := range ids {
		if ng.Type(id) != g.Type(id) {
			t.Fatalf("%s changed type", name)
		}
	}
	// EdgeMap: surviving old edges resolve to identical triples.
	if ch.EdgeMap == nil {
		t.Fatal("expected a non-identity edge map")
	}
	for old, nu := range ch.EdgeMap {
		oe := g.Edge(EdgeID(old))
		if oe.Attr == g.LookupAttr("Genre") {
			if nu != -1 {
				t.Fatalf("removed edge mapped to %d", nu)
			}
			continue
		}
		if nu < 0 {
			t.Fatalf("surviving edge %d unmapped", old)
		}
		ne := ng.Edge(nu)
		if oe.Src != ne.Src || oe.Dst != ne.Dst || g.AttrName(oe.Attr) != ng.AttrName(ne.Attr) {
			t.Fatalf("edge %d remapped to a different triple: %+v vs %+v", old, oe, ne)
		}
	}
}

// TestDeltaEdgeMapNilWhenAppendOnly: a delta that removes nothing and
// whose added edges all sort after the surviving ones keeps every old
// EdgeID, and says so with a nil EdgeMap; an edge added from an existing
// node that has later edges shifts those, and the map records the shift.
func TestDeltaEdgeMapNilWhenAppendOnly(t *testing.T) {
	b, ids := fig1Builder()
	g := b.MustFreeze()

	// Append-only: a new entity with a text attribute and an edge into the
	// graph; every new edge leaves from the new node.
	d := NewDelta(g)
	oracle, err := d.AddEntity("Company", "Oracle Corp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddTextAttr(oracle, "Revenue", "US$ 37 billion"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddAttr(oracle, "Founder", ids["gates"]); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if ch.EdgeMap != nil {
		t.Fatalf("append-only delta: EdgeMap = %v, want nil", ch.EdgeMap)
	}
	for id := 0; id < g.NumEdges(); id++ {
		if oe, ne := g.Edge(EdgeID(id)), ch.New.Edge(EdgeID(id)); oe != ne {
			t.Fatalf("append-only delta moved edge %d: %+v -> %+v", id, oe, ne)
		}
	}

	// An edge from SQL Server (node 0) sorts before Microsoft's edges.
	d = NewDelta(g)
	if err := d.AddAttr(ids["sql"], "Reference", ids["gates"]); err != nil {
		t.Fatal(err)
	}
	ch, err = d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if ch.EdgeMap == nil {
		t.Fatal("edge added from a low-ID node: EdgeMap is nil, want the shift")
	}
	moved := 0
	for old, nu := range ch.EdgeMap {
		if oe, ne := g.Edge(EdgeID(old)), ch.New.Edge(nu); oe.Src != ne.Src || oe.Dst != ne.Dst || oe.Attr != ne.Attr {
			t.Fatalf("edge %d remapped to a different triple: %+v vs %+v", old, oe, ne)
		}
		if nu != EdgeID(old) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("non-nil EdgeMap moves no edge")
	}
}

func TestDeltaRemoveEntityCascades(t *testing.T) {
	b, ids := fig1Builder()
	g := b.MustFreeze()

	d := NewDelta(g)
	if err := d.RemoveEntity(ids["ms"]); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	ng := ch.New
	if !ng.Removed(ids["ms"]) {
		t.Fatal("node not tombstoned")
	}
	if ng.Type(ids["ms"]) != LiteralType || ng.Text(ids["ms"]) != "" {
		t.Fatal("tombstone is not inert")
	}
	// All three incident edges (Developer in, Revenue out, Founder out) gone.
	if ng.NumEdges() != g.NumEdges()-3 {
		t.Fatalf("cascade removed %d edges, want 3", g.NumEdges()-ng.NumEdges())
	}
	if _, n := ng.OutEdges(ids["ms"]); n != 0 {
		t.Fatal("tombstone still has out-edges")
	}
	if len(ng.InEdgeIDs(ids["ms"])) != 0 {
		t.Fatal("tombstone still has in-edges")
	}
	// Excluded from the type partition.
	for _, v := range ng.NodesOfType(g.Type(ids["ms"])) {
		if v == ids["ms"] {
			t.Fatal("tombstone listed in NodesOfType")
		}
	}
	if ng.NumRemoved() != 1 {
		t.Fatalf("NumRemoved = %d", ng.NumRemoved())
	}

	// A second delta must reject references to the tombstone.
	d2 := NewDelta(ng)
	if err := d2.AddAttr(ids["sql"], "Developer", ids["ms"]); err == nil {
		t.Fatal("edge to removed node accepted")
	}
	if err := d2.RemoveEntity(ids["ms"]); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestDeltaValidation(t *testing.T) {
	b, ids := fig1Builder()
	g := b.MustFreeze()
	d := NewDelta(g)

	if _, err := d.AddEntity("Literal", "x"); err == nil {
		t.Fatal("reserved Literal type accepted")
	}
	if _, err := d.AddEntity("", "x"); err == nil {
		t.Fatal("empty type accepted")
	}
	if err := d.AddAttr(ids["rev"], "Publisher", ids["ms"]); err == nil {
		t.Fatal("out-edge from a literal accepted")
	}
	if err := d.AddAttr(ids["sql"], "", ids["ms"]); err == nil {
		t.Fatal("empty attribute name accepted")
	}
	if err := d.AddAttr(99, "Developer", ids["ms"]); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := d.RemoveEdge(ids["sql"], "Publisher", ids["ms"]); err == nil {
		t.Fatal("removing via unknown attribute accepted")
	}
	if _, err := d.RemoveEdge(ids["sql"], "Developer", ids["gates"]); err == nil {
		t.Fatal("removing a nonexistent triple accepted")
	}
	if err := d.SetText(-1, "x"); err == nil {
		t.Fatal("retext of negative node accepted")
	}
	if _, err := NewDelta(g).Apply(); err == nil {
		t.Fatal("empty delta applied")
	}

	// Within-delta consistency: an entity added then removed in the same
	// batch, and an edge added then removed.
	d3 := NewDelta(g)
	tmp, _ := d3.AddEntity("Company", "Transient Inc")
	if err := d3.AddAttr(ids["sql"], "Developer", tmp); err != nil {
		t.Fatal(err)
	}
	if err := d3.RemoveEntity(tmp); err != nil {
		t.Fatal(err)
	}
	ch, err := d3.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if ch.New.NumEdges() != g.NumEdges() {
		t.Fatal("edge to transient node survived")
	}
	if !ch.New.Removed(tmp) {
		t.Fatal("transient node not tombstoned")
	}
}

// TestDeltaEquivalentToRebuild: applying a delta must produce a graph
// byte-equivalent (modulo the removed bitmap) to building the same final
// state from scratch through a Builder.
func TestDeltaEquivalentToRebuild(t *testing.T) {
	b, ids := fig1Builder()
	g := b.MustFreeze()

	d := NewDelta(g)
	oracle, _ := d.AddEntity("Company", "Oracle Corp")
	if err := d.AddAttr(ids["sql"], "Competitor", oracle); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RemoveEdge(ids["sql"], "Genre", ids["rel"]); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}

	// From-scratch: same insertion order (original order minus removed,
	// added at the end).
	b2 := NewBuilder()
	b2.Entity("Software", "SQL Server")
	b2.Entity("Model", "Relational database")
	b2.Entity("Company", "Microsoft")
	b2.Entity("Person", "Bill Gates")
	// Keep type-registration order identical to the delta path: Literal,
	// Software, Model, Company, Person.
	b2.EntityT(LiteralType, "US$ 77 billion")
	b2.Attr(ids["sql"], "Developer", ids["ms"])
	b2.Attr(ids["ms"], "Revenue", ids["rev"])
	b2.Attr(ids["ms"], "Founder", ids["gates"])
	b2.Entity("Company", "Oracle Corp")
	b2.Attr(ids["sql"], "Competitor", oracle)
	want := b2.MustFreeze()

	got := ch.New
	// Attribute IDs may differ ("Genre" is still interned in the delta
	// graph), so compare triples by name rather than raw structs.
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape differs: %v vs %v", got, want)
	}
	for v := 0; v < got.NumNodes(); v++ {
		if got.Text(NodeID(v)) != want.Text(NodeID(v)) ||
			got.TypeName(got.Type(NodeID(v))) != want.TypeName(want.Type(NodeID(v))) {
			t.Fatalf("node %d differs", v)
		}
	}
	for e := 0; e < got.NumEdges(); e++ {
		ge, we := got.Edge(EdgeID(e)), want.Edge(EdgeID(e))
		if ge.Src != we.Src || ge.Dst != we.Dst ||
			got.AttrName(ge.Attr) != want.AttrName(we.Attr) {
			t.Fatalf("edge %d differs: %+v vs %+v", e, ge, we)
		}
	}
}

// chainGraph builds r0 -> r1 -> ... -> r(n-1) so backward reachability
// depths are easy to reason about.
func chainGraph(n int) (*Graph, []NodeID) {
	b := NewBuilder()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = b.Entity("T", "node")
	}
	for i := 0; i+1 < n; i++ {
		b.Attr(ids[i], "next", ids[i+1])
	}
	return b.MustFreeze(), ids
}

func TestAffectedRootsDepth(t *testing.T) {
	g, ids := chainGraph(6)
	d := NewDelta(g)
	if err := d.SetText(ids[4], "changed"); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	for depth, want := range map[int][]NodeID{
		0: {ids[4]},
		1: {ids[3], ids[4]},
		2: {ids[2], ids[3], ids[4]},
		5: {ids[0], ids[1], ids[2], ids[3], ids[4]},
	} {
		got := AffectedRoots(ch, depth)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("depth %d: got %v want %v", depth, got, want)
		}
	}
}

func TestAffectedRootsSeesRemovedPaths(t *testing.T) {
	// Removing the edge 1->2 must dirty roots 0 and 1 (they could reach
	// the edge in the OLD graph even though it is gone from the new one).
	g, ids := chainGraph(4)
	d := NewDelta(g)
	if _, err := d.RemoveEdge(ids[1], "next", ids[2]); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	got := AffectedRoots(ch, 2)
	want := []NodeID{ids[0], ids[1], ids[2]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

// TestDeltaCSRInvariantsRandom applies random deltas to random graphs and
// checks the CSR structures stay internally consistent.
func TestDeltaCSRInvariantsRandom(t *testing.T) {
	types := []string{"A", "B", "C"}
	attrs := []string{"x", "y", "z"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := 4 + rng.Intn(12)
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = b.Entity(types[rng.Intn(len(types))], "t")
		}
		for i := 0; i < 2*n; i++ {
			b.Attr(ids[rng.Intn(n)], attrs[rng.Intn(len(attrs))], ids[rng.Intn(n)])
		}
		g := b.MustFreeze()

		for step := 0; step < 3; step++ {
			d := NewDelta(g)
			did := 0
			for op := 0; op < 1+rng.Intn(4); op++ {
				switch rng.Intn(5) {
				case 0:
					if _, err := d.AddEntity(types[rng.Intn(len(types))], "fresh"); err == nil {
						did++
					}
				case 1:
					if d.AddAttr(NodeID(rng.Intn(g.NumNodes())), attrs[rng.Intn(len(attrs))], NodeID(rng.Intn(g.NumNodes()))) == nil {
						did++
					}
				case 2:
					if g.NumEdges() > 0 {
						e := g.Edge(EdgeID(rng.Intn(g.NumEdges())))
						if _, err := d.RemoveEdge(e.Src, g.AttrName(e.Attr), e.Dst); err == nil {
							did++
						}
					}
				case 3:
					if d.RemoveEntity(NodeID(rng.Intn(g.NumNodes()))) == nil {
						did++
					}
				case 4:
					if d.SetText(NodeID(rng.Intn(g.NumNodes())), "re") == nil {
						did++
					}
				}
			}
			if did == 0 {
				continue
			}
			ch, err := d.Apply()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			verifyCSR(t, ch.New)
			for id := 0; ch.EdgeMap == nil && id < g.NumEdges(); id++ {
				if g.Edge(EdgeID(id)) != ch.New.Edge(EdgeID(id)) {
					t.Fatalf("seed %d step %d: nil EdgeMap but edge %d moved", seed, step, id)
				}
			}
			g = ch.New
		}
	}
}

// verifyCSR checks forward/backward adjacency agree and stay sorted.
func verifyCSR(t *testing.T, g *Graph) {
	t.Helper()
	seen := 0
	for v := 0; v < g.NumNodes(); v++ {
		first, n := g.OutEdges(NodeID(v))
		seen += n
		for i := 0; i < n; i++ {
			e := g.Edge(first + EdgeID(i))
			if e.Src != NodeID(v) {
				t.Fatalf("out-edge of %d has Src %d", v, e.Src)
			}
		}
		if g.Removed(NodeID(v)) && n != 0 {
			t.Fatalf("tombstone %d has out-edges", v)
		}
		for _, id := range g.InEdgeIDs(NodeID(v)) {
			if g.Edge(id).Dst != NodeID(v) {
				t.Fatalf("in-edge of %d has Dst %d", v, g.Edge(id).Dst)
			}
		}
	}
	if seen != g.NumEdges() {
		t.Fatalf("outStart covers %d edges, graph has %d", seen, g.NumEdges())
	}
	total := 0
	for ty := 0; ty < g.NumTypes(); ty++ {
		l := g.NodesOfType(TypeID(ty))
		total += len(l)
		if !sort.SliceIsSorted(l, func(i, j int) bool { return l[i] < l[j] }) {
			t.Fatalf("NodesOfType(%d) not sorted", ty)
		}
		for _, v := range l {
			if g.Removed(v) {
				t.Fatalf("tombstone %d in NodesOfType", v)
			}
			if g.Type(v) != TypeID(ty) {
				t.Fatalf("node %d in wrong type bucket", v)
			}
		}
	}
	if total != g.NumNodes()-g.NumRemoved() {
		t.Fatalf("type partition covers %d nodes, want %d", total, g.NumNodes()-g.NumRemoved())
	}
}

// TestTombstonesSurviveSaveLoad: the wire format must carry the removed
// bitmap — otherwise persisting a mutated KB resurrects removed entities
// (they would regain their type words and accept new edges after a
// save/load round-trip).
func TestTombstonesSurviveSaveLoad(t *testing.T) {
	b, ids := fig1Builder()
	g := b.MustFreeze()
	d := NewDelta(g)
	if err := d.RemoveEntity(ids["ms"]); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.kb")
	if err := ch.New.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRemoved() != 1 || !loaded.Removed(ids["ms"]) {
		t.Fatalf("tombstone lost in round-trip: NumRemoved=%d", loaded.NumRemoved())
	}
	d2 := NewDelta(loaded)
	if err := d2.SetText(ids["ms"], "zombie"); err == nil {
		t.Fatal("removed entity accepted a mutation after save/load")
	}
	if err := d2.RemoveEntity(ids["ms"]); err == nil {
		t.Fatal("double remove accepted after save/load")
	}
	verifyCSR(t, loaded)
}
