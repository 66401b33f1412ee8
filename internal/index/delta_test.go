package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
	"kbtable/internal/text"
)

// entryDesc is the content-level identity of one posting: everything the
// query algorithms can observe, with interned IDs replaced by content keys
// (PatternIDs are assigned in DFS-encounter order, which legitimately
// differs between an incrementally maintained index and a rebuild).
type entryDesc struct {
	PatKey  string
	Root    kg.NodeID
	Edges   string
	EdgeEnd bool
	Len     int
	PR      float64
	Sim     float64
}

// canonical flattens an index into word-surface -> sorted postings.
func canonical(ix *Index) map[string][]entryDesc {
	out := make(map[string][]entryDesc)
	for w := range ix.words {
		wi := &ix.words[w]
		if wi.n == 0 {
			continue
		}
		surface := ix.dict.Word(text.WordID(w))
		flat, buf := wi.flatten()
		descs := make([]entryDesc, 0, len(flat))
		for i := range flat {
			e := &flat[i]
			edges := ""
			for _, eid := range buf[e.edgeOff : e.edgeOff+e.edgeLen] {
				edges += fmt.Sprintf("%d,", eid)
			}
			descs = append(descs, entryDesc{
				PatKey:  ix.pt.Get(e.pattern).Key(),
				Root:    e.root,
				Edges:   edges,
				EdgeEnd: e.edgeEnd,
				Len:     int(e.term.len),
				PR:      wi.pr[e.term.node],
				Sim:     e.term.sim,
			})
		}
		sort.Slice(descs, func(i, j int) bool {
			a, b := descs[i], descs[j]
			if a.PatKey != b.PatKey {
				return a.PatKey < b.PatKey
			}
			if a.Root != b.Root {
				return a.Root < b.Root
			}
			return a.Edges < b.Edges
		})
		out[surface] = descs
	}
	return out
}

func diffCanonical(t *testing.T, label string, inc, reb map[string][]entryDesc) {
	t.Helper()
	for w, want := range reb {
		got, ok := inc[w]
		if !ok {
			t.Errorf("%s: incremental index lost word %q (%d postings)", label, w, len(want))
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: postings differ for %q:\n inc %+v\n reb %+v", label, w, got, want)
		}
	}
	for w, got := range inc {
		if _, ok := reb[w]; !ok {
			t.Errorf("%s: incremental index has spurious word %q (%d postings)", label, w, len(got))
		}
	}
}

// randomMutGraph builds a random graph whose texts overlap heavily, so
// posting lists genuinely share words across roots.
func randomMutGraph(rng *rand.Rand) *kg.Graph {
	vocab := []string{"alpha", "beta", "gamma", "delta", "omega", "sigma"}
	types := []string{"City", "Person", "Company", "Product"}
	attrs := []string{"knows", "owns", "near", "makes"}
	b := kg.NewBuilder()
	n := 8 + rng.Intn(16)
	ids := make([]kg.NodeID, n)
	for i := 0; i < n; i++ {
		txt := vocab[rng.Intn(len(vocab))]
		if rng.Intn(2) == 0 {
			txt += " " + vocab[rng.Intn(len(vocab))]
		}
		ids[i] = b.Entity(types[rng.Intn(len(types))], txt)
	}
	for i := 0; i < 2*n; i++ {
		b.Attr(ids[rng.Intn(n)], attrs[rng.Intn(len(attrs))], ids[rng.Intn(n)])
	}
	return b.MustFreeze()
}

// randomDelta stages 1..5 random valid mutations; ops that fail eager
// validation (e.g. attaching to a literal) are simply skipped.
func randomDelta(rng *rand.Rand, g *kg.Graph) *kg.Delta {
	vocab := []string{"alpha", "beta", "gamma", "nu", "xi"}
	types := []string{"City", "Person", "Startup"}
	attrs := []string{"knows", "owns", "funds"}
	d := kg.NewDelta(g)
	staged := 0
	var added []kg.NodeID
	pick := func() kg.NodeID {
		if len(added) > 0 && rng.Intn(3) == 0 {
			return added[rng.Intn(len(added))]
		}
		return kg.NodeID(rng.Intn(g.NumNodes()))
	}
	for op := 0; op < 1+rng.Intn(5) || staged == 0; op++ {
		if op > 30 {
			break
		}
		switch rng.Intn(6) {
		case 0:
			if v, err := d.AddEntity(types[rng.Intn(len(types))], vocab[rng.Intn(len(vocab))]); err == nil {
				added = append(added, v)
				staged++
			}
		case 1:
			if d.AddAttr(pick(), attrs[rng.Intn(len(attrs))], pick()) == nil {
				staged++
			}
		case 2:
			if _, err := d.AddTextAttr(pick(), "note", vocab[rng.Intn(len(vocab))]+" memo"); err == nil {
				staged++
			}
		case 3:
			if g.NumEdges() > 0 {
				e := g.Edge(kg.EdgeID(rng.Intn(g.NumEdges())))
				if _, err := d.RemoveEdge(e.Src, g.AttrName(e.Attr), e.Dst); err == nil {
					staged++
				}
			}
		case 4:
			if d.RemoveEntity(kg.NodeID(rng.Intn(g.NumNodes()))) == nil {
				staged++
			}
		case 5:
			if d.SetText(kg.NodeID(rng.Intn(g.NumNodes())), vocab[rng.Intn(len(vocab))]) == nil {
				staged++
			}
		}
	}
	return d
}

// TestApplyDeltaMatchesRebuild is the core maintenance property: after any
// chain of random updates, the incrementally maintained index must be
// content-identical to a from-scratch Build of the final snapshot — same
// posting lists, same paths, same precomputed score terms — under both
// uniform-PR and PageRank scoring. Every step's columns must also be the
// ones the comparator reference derives (requireReferenceColumns).
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	seqs := int64(60)
	if testing.Short() {
		seqs = 12
	}
	for seed := int64(0); seed < seqs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		uniform := seed%2 == 0 // odd seeds exercise the PageRank refresh path
		d := 2 + rng.Intn(2)
		opts := Options{D: d, UniformPR: uniform}
		g := randomMutGraph(rng)
		ix, err := Build(g, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := canonical(ix)

		steps := 1 + rng.Intn(3)
		cur := ix
		for s := 0; s < steps; s++ {
			ch, err := randomDelta(rng, cur.Graph()).Apply()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, s, err)
			}
			next, ds, err := cur.ApplyDelta(ch, opts)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, s, err)
			}
			if ds.DirtyRoots == 0 {
				t.Fatalf("seed %d step %d: change with no dirty roots", seed, s)
			}
			requireReferenceColumns(t, fmt.Sprintf("seed %d step %d", seed, s), next)
			cur = next
		}

		reb, err := Build(cur.Graph(), opts)
		if err != nil {
			t.Fatalf("seed %d rebuild: %v", seed, err)
		}
		label := fmt.Sprintf("seed=%d d=%d uniform=%v", seed, d, uniform)
		diffCanonical(t, label, canonical(cur), canonical(reb))
		if cur.stats.NumEntries != reb.stats.NumEntries {
			t.Errorf("%s: NumEntries %d vs %d", label, cur.stats.NumEntries, reb.stats.NumEntries)
		}

		// Copy-on-write: the base index must be untouched.
		if !reflect.DeepEqual(canonical(ix), before) {
			t.Fatalf("%s: ApplyDelta mutated the base index", label)
		}

		// Spot-check the derived views through the public API.
		for _, w := range []string{"alpha", "beta", "knows", "person"} {
			wi := cur.dict.Lookup(w)
			wr := reb.dict.Lookup(w)
			var rootsInc, rootsReb []kg.NodeID
			if wi >= 0 {
				rootsInc = cur.Roots(cur.dict.Canonical(wi))
			}
			if wr >= 0 {
				rootsReb = reb.Roots(reb.dict.Canonical(wr))
			}
			if !reflect.DeepEqual(rootsInc, rootsReb) {
				t.Errorf("%s: Roots(%q) differ: %v vs %v", label, w, rootsInc, rootsReb)
			}
			for i := 0; i < len(rootsInc); i++ {
				if cur.NumPathsAt(cur.dict.Canonical(wi), rootsInc[i]) != reb.NumPathsAt(reb.dict.Canonical(wr), rootsReb[i]) {
					t.Errorf("%s: NumPathsAt(%q, %d) differ", label, w, rootsInc[i])
				}
			}
		}
	}
}

// TestApplyDeltaValidation covers the guard rails.
func TestApplyDeltaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomMutGraph(rng)
	ix, err := Build(g, Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := randomDelta(rng, g).Apply()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.ApplyDelta(nil, Options{}); err == nil {
		t.Fatal("nil change accepted")
	}
	if _, _, err := ix.ApplyDelta(ch, Options{D: 2, UniformPR: true}); err == nil {
		t.Fatal("mismatched D accepted")
	}
	// A change computed against a different snapshot must be rejected.
	other, _ := Build(randomMutGraph(rand.New(rand.NewSource(2))), Options{D: 3, UniformPR: true})
	if _, _, err := other.ApplyDelta(ch, Options{D: 3, UniformPR: true}); err == nil {
		t.Fatal("change against foreign graph accepted")
	}
	// Injected dirty roots must come ascending, as AffectedRoots returns
	// them: the splice merge relies on root-ordered fresh postings.
	if _, _, err := ix.ApplyDelta(ch, Options{D: 3, UniformPR: true, DirtyRoots: []kg.NodeID{1, 0}}); err == nil {
		t.Fatal("descending dirty roots accepted")
	}
	// And the happy path still works after all those rejections.
	if _, _, err := ix.ApplyDelta(ch, Options{D: 3, UniformPR: true}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDeltaLocality: an edit in one corner of a long chain must not
// dirty roots beyond its d-neighborhood — the whole point of incremental
// maintenance.
func TestApplyDeltaLocality(t *testing.T) {
	b := kg.NewBuilder()
	const n = 64
	ids := make([]kg.NodeID, n)
	for i := range ids {
		ids[i] = b.Entity("Station", fmt.Sprintf("stop %d", i))
	}
	for i := 0; i+1 < n; i++ {
		b.Attr(ids[i], "next", ids[i+1])
	}
	g := b.MustFreeze()
	ix, err := Build(g, Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	d := kg.NewDelta(g)
	if err := d.SetText(ids[n-1], "terminus"); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	next, ds, err := ix.ApplyDelta(ch, Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.DirtyRoots != 3 { // ids[n-3..n-1]: within 2 edges of the change
		t.Fatalf("dirty roots = %d, want 3", ds.DirtyRoots)
	}
	reb, err := Build(ch.New, Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	diffCanonical(t, "chain", canonical(next), canonical(reb))
}

// requireSameIndex fails unless two indexes hold the same pattern table
// and, word by word, the same columns, positions included.
func requireSameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if !reflect.DeepEqual(got.pt.Snapshot(), want.pt.Snapshot()) {
		t.Fatalf("%s: pattern tables differ", label)
	}
	if len(got.words) != len(want.words) {
		t.Fatalf("%s: %d words, want %d", label, len(got.words), len(want.words))
	}
	for w := range got.words {
		requireSameColumns(t, fmt.Sprintf("%s: word %q", label, want.dict.Word(text.WordID(w))), &got.words[w], &want.words[w])
	}
}

// hubDelta removes the hub of a star whose spokes each carry one word of
// their own: the removal dirties every node, far more roots than a spoke
// word's posting list holds, so the splice counts dirty postings by
// scanning the word's roots rather than looking each dirty root up.
func hubDelta(t *testing.T) (*kg.Graph, *kg.Delta) {
	t.Helper()
	b := kg.NewBuilder()
	hub := b.Entity("Company", "hub alpha")
	vocab := []string{"beta", "gamma", "delta", "omega", "sigma"}
	for i := 0; i < 40; i++ {
		s := b.Entity("Person", "spoke alpha "+vocab[i%len(vocab)])
		b.Attr(hub, "employs", s)
		b.Attr(s, "worksfor", hub)
	}
	g := b.MustFreeze()
	d := kg.NewDelta(g)
	if err := d.RemoveEntity(hub); err != nil {
		t.Fatal(err)
	}
	return g, d
}

// TestApplyDeltaWorkersAgree: the parallel splice is schedule-free.
// TestApplyDeltaMatchesRebuild's delta chains, plus a hub removal, replay
// at one and at four workers; after every step the two indexes must agree
// column by column and report the same DeltaStats but for Elapsed.
func TestApplyDeltaWorkersAgree(t *testing.T) {
	type chain struct {
		label string
		opts  Options
		g     *kg.Graph
		delta func(g *kg.Graph) *kg.Delta
		n     int
	}
	var chains []chain
	seqs := int64(60)
	if testing.Short() {
		seqs = 12
	}
	for seed := int64(0); seed < seqs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		uniform := seed%2 == 0
		d := 2 + rng.Intn(2)
		g := randomMutGraph(rng)
		chains = append(chains, chain{
			label: fmt.Sprintf("seed=%d", seed),
			opts:  Options{D: d, UniformPR: uniform},
			g:     g,
			delta: func(g *kg.Graph) *kg.Delta { return randomDelta(rng, g) },
			n:     1 + rng.Intn(3),
		})
	}
	hubG, hub := hubDelta(t)
	for _, uniform := range []bool{true, false} {
		for _, d := range []int{2, 3} {
			chains = append(chains, chain{
				label: fmt.Sprintf("hub d=%d uniform=%v", d, uniform),
				opts:  Options{D: d, UniformPR: uniform},
				g:     hubG,
				delta: func(*kg.Graph) *kg.Delta { return hub },
				n:     1,
			})
		}
	}
	for _, c := range chains {
		serial, parallel := c.opts, c.opts
		serial.Workers, parallel.Workers = 1, 4
		ix, err := Build(c.g, serial)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		a, b := ix, ix
		for s := 0; s < c.n; s++ {
			label := fmt.Sprintf("%s step %d", c.label, s)
			ch, err := c.delta(a.Graph()).Apply()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			na, dsA, err := a.ApplyDelta(ch, serial)
			if err != nil {
				t.Fatalf("%s: serial: %v", label, err)
			}
			nb, dsB, err := b.ApplyDelta(ch, parallel)
			if err != nil {
				t.Fatalf("%s: parallel: %v", label, err)
			}
			dsA.Elapsed, dsB.Elapsed = 0, 0
			if !reflect.DeepEqual(dsA, dsB) {
				t.Fatalf("%s: stats differ:\n workers=1 %+v\n workers=4 %+v", label, dsA, dsB)
			}
			requireSameIndex(t, label, nb, na)
			a, b = na, nb
		}
	}
}

// TestCountDirty: both ways of counting a word's dirty postings, a lookup
// per dirty root and a scan of the word's roots, agree with a per-entry
// count, over dirty sets from empty to every node.
func TestCountDirty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomMutGraph(rng)
	ix, err := Build(g, Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		dirtySet := make([]bool, g.NumNodes())
		var dirty []kg.NodeID
		keep := trial % 5 // 0: none, 4: three in four
		for v := range dirtySet {
			if rng.Intn(4) < keep {
				dirtySet[v] = true
				dirty = append(dirty, kg.NodeID(v))
			}
		}
		for w := range ix.words {
			wi := &ix.words[w]
			want := 0
			flat, _ := wi.flatten()
			for _, e := range flat {
				if dirtySet[e.root] {
					want++
				}
			}
			if got := wi.countDirty(dirty, dirtySet); got != want {
				t.Fatalf("trial %d word %d: %d dirty postings (%d dirty roots, %d word roots), want %d",
					trial, w, got, len(dirty), len(wi.roots), want)
			}
		}
	}
}

// boundsByContent maps word surface -> pattern key -> PatternBounds, the
// bounds of an index with PatternIDs replaced by pattern content.
func boundsByContent(ix *Index) map[string]map[string]PatternBounds {
	out := map[string]map[string]PatternBounds{}
	for w := range ix.words {
		if ix.words[w].n == 0 {
			continue
		}
		m := map[string]PatternBounds{}
		for _, p := range ix.Patterns(text.WordID(w)) {
			b, _ := ix.PatternBounds(text.WordID(w), p)
			m[ix.pt.Get(p).Key()] = b
		}
		out[ix.dict.Word(text.WordID(w))] = m
	}
	return out
}

// sameArray reports whether two non-empty slices share a backing array.
func sameArray[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestApplyDeltaSharesCarriedWords is the copy-on-write guard of the
// PageRank refresh: along a chain of structural updates under PageRank,
// every posting list the update did not touch shares its term references,
// term pool and (under an identity edge map) edge arena with the old
// epoch, so no posting is rewritten when PageRank moves. Its bounds must
// still be exact: every PatternBounds equals a fresh Build's.
func TestApplyDeltaSharesCarriedWords(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "nu", "xi"}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{D: 3}
		cur, err := Build(dataset.SynthWiki(dataset.WikiConfig{Entities: 150, Types: 8, Seed: seed}), opts)
		if err != nil {
			t.Fatal(err)
		}
		carried := 0
		for step := 0; step < 4; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			g := cur.Graph()
			d := kg.NewDelta(g)
			v, err := d.AddEntity("Startup", vocab[rng.Intn(len(vocab))])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.AddTextAttr(v, "note", vocab[rng.Intn(len(vocab))]); err != nil {
				t.Fatal(err)
			}
			var entities []kg.NodeID
			for v := 0; v < g.NumNodes(); v++ {
				if g.Type(kg.NodeID(v)) != kg.LiteralType {
					entities = append(entities, kg.NodeID(v))
				}
			}
			old := entities[rng.Intn(len(entities))]
			if step%2 == 1 {
				// An edge from an old node shifts later EdgeIDs.
				err = d.AddAttr(old, "funds", v)
			} else {
				err = d.AddAttr(v, "funds", old)
			}
			if err != nil {
				t.Fatal(err)
			}
			ch, err := d.Apply()
			if err != nil {
				t.Fatal(err)
			}
			next, ds, err := cur.ApplyDelta(ch, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ds.ScoresRefreshed {
				t.Fatalf("%s: structural update under PageRank did not refresh scores", label)
			}
			touched := map[string]bool{}
			for _, w := range ds.TouchedWords {
				touched[w] = true
			}
			for w := range cur.words {
				old, nu := &cur.words[w], &next.words[w]
				if old.n == 0 || touched[cur.dict.Word(text.WordID(w))] {
					continue
				}
				carried++
				if !sameArray(old.termRef, nu.termRef) || !sameArray(old.termPool, nu.termPool) {
					t.Fatalf("%s: carried word %q has its term columns rewritten", label, cur.dict.Word(text.WordID(w)))
				}
				if ch.EdgeMap == nil && len(old.edgeBuf) > 0 && !sameArray(old.edgeBuf, nu.edgeBuf) {
					t.Fatalf("%s: carried word %q has its edge arena copied under an identity edge map", label, cur.dict.Word(text.WordID(w)))
				}
			}
			reb, err := Build(ch.New, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := boundsByContent(next), boundsByContent(reb); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: PatternBounds differ from a rebuild's:\n got  %v\n want %v", label, got, want)
			}
			cur = next
		}
		if carried == 0 {
			t.Fatalf("seed %d: no word was carried over", seed)
		}
	}
}

// TestRebindRefreshesBounds: on an index that owns none of a structural
// delta's dirty roots, Rebind with the new PageRank vector is ApplyDelta
// minus the dictionary clone: the same columns word for word (the
// refreshed PR bounds included), postings shared with the receiver, and
// bounds equal to a rebuild's.
func TestRebindRefreshesBounds(t *testing.T) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 150, Types: 8, Seed: 3})
	d := kg.NewDelta(g)
	v, err := d.AddEntity("Startup", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddAttr(v, "funds", 0); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, ch.New.NumNodes())
	for _, r := range kg.AffectedRoots(ch, 2) {
		dirty[r] = true
	}
	opts := Options{D: 3, RootFilter: func(r kg.NodeID) bool { return !dirty[r] }}
	ix, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.PageRank = rank.PageRank(ch.New, rank.Options{})
	applied, ds, err := ix.ApplyDelta(ch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.DirtyRoots != 0 || ds.WordsTouched != 0 || !ds.ScoresRefreshed {
		t.Fatalf("delta stats %+v, want no owned dirty root and a score refresh", ds)
	}
	rebound := ix.Rebind(ch.New, opts.PageRank, ix.Dict())
	for w := range applied.words {
		if w >= len(rebound.words) {
			if applied.words[w].n != 0 {
				t.Fatalf("word %d has postings only after ApplyDelta", w)
			}
			continue
		}
		requireSameColumns(t, fmt.Sprintf("word %q", applied.dict.Word(text.WordID(w))), &rebound.words[w], &applied.words[w])
		if old, nu := &ix.words[w], &rebound.words[w]; old.n > 0 && (!sameArray(old.termRef, nu.termRef) || !sameArray(old.termPool, nu.termPool)) {
			t.Fatalf("word %d: Rebind copied the term columns", w)
		}
	}
	opts.PageRank = nil
	reb, err := Build(ch.New, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := boundsByContent(rebound), boundsByContent(reb); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebound bounds differ from a rebuild's")
	}
	if same := ix.Rebind(ch.New, nil, ix.Dict()); !sameArray(same.words, ix.words) {
		t.Fatal("Rebind without a new vector must share every word")
	}
}

// TestEpochDictionary: NewCorpus interns the synonyms by alias, then the
// words of type names, attribute names and node texts; Extend forks its
// dictionary and appends a change's new type names, new attribute names
// and touched node texts (ascending), leaving the receiver's dictionary as
// it was. An index never tokenizes: Build and ApplyDelta read the corpus
// they are handed, and refuse one of another graph snapshot.
func TestEpochDictionary(t *testing.T) {
	b := kg.NewBuilder()
	book := b.Entity("Book", "alpha")
	b.Attr(book, "author", b.Entity("Person", "omega"))
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	words := func(d *text.Dict, from int) []string {
		var out []string
		for id := from; id < d.Len(); id++ {
			out = append(out, d.Word(text.WordID(id)))
		}
		return out
	}
	c := NewCorpus(g, map[string]string{"tome": "book", "gamma": "alpha"})
	d := c.Dict()
	if got, want := words(d, 0), []string{"gamma", "alpha", "tome", "book", "person", "author", "omega"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("NewCorpus words %q, want %q", got, want)
	}

	delta := kg.NewDelta(g)
	if err := delta.SetText(book, "delta omega"); err != nil {
		t.Fatal(err)
	}
	v, err := delta.AddEntity("Zeta", "kappa")
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.AddAttr(v, "sequel", book); err != nil {
		t.Fatal(err)
	}
	ch, err := delta.Apply()
	if err != nil {
		t.Fatal(err)
	}
	n := d.Len()
	ext := c.Extend(ch)
	if got, want := words(ext.Dict(), n), []string{"zeta", "sequel", "delta", "kappa"}; d.Len() != n || !reflect.DeepEqual(got, want) {
		t.Fatalf("Extend added %q (receiver %d -> %d words), want %q", got, n, d.Len(), want)
	}

	ix, err := Build(g, Options{D: 3, Corpus: c})
	if err != nil || ix.Dict() != d {
		t.Fatalf("Build with a corpus: %v, shares its dictionary %t", err, err == nil && ix.Dict() == d)
	}
	if _, _, err := ix.ApplyDelta(ch, Options{Corpus: c}); err == nil || !strings.Contains(err.Error(), "another graph") {
		t.Fatalf("ApplyDelta with the old epoch's corpus: %v, want a refusal", err)
	}
	if _, err := Build(ch.New, Options{D: 3, Corpus: c}); err == nil || !strings.Contains(err.Error(), "another graph") {
		t.Fatalf("Build with another graph's corpus: %v, want a refusal", err)
	}
	nix, _, err := ix.ApplyDelta(ch, Options{Corpus: ext})
	if err != nil || nix.Dict() != ext.Dict() {
		t.Fatalf("ApplyDelta with the new epoch's corpus: %v, shares its dictionary %t", err, err == nil && nix.Dict() == ext.Dict())
	}
	if own, _, err := ix.ApplyDelta(ch, Options{}); err != nil || !own.Dict().Equal(ext.Dict()) || d.Len() != n {
		t.Fatalf("standalone ApplyDelta: %v; its dictionary must equal Extend's and leave the receiver's alone", err)
	}
}

// TestExtendMatchesFreshTokenization: along random update chains, every
// node's, type's and attribute's list in an extended corpus equals a fresh
// tokenization of ch.New looked up in the extended dictionary (CorpusOf,
// which fails on a word the dictionary lacks), and Extend leaves its
// receiver's dictionary alone.
func TestExtendMatchesFreshTokenization(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for chain := 0; chain < 30; chain++ {
		c := NewCorpus(randomMutGraph(rng), nil)
		for step := 0; step < 6; step++ {
			label := fmt.Sprintf("chain %d, step %d", chain, step)
			ch, err := randomDelta(rng, c.g).Apply()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			n := c.dict.Len()
			ext := c.Extend(ch)
			fresh, err := CorpusOf(ch.New, ext.dict)
			if err != nil {
				t.Fatalf("%s: the extended dictionary misses a word of the new graph: %v", label, err)
			}
			if c.dict.Len() != n {
				t.Fatalf("%s: Extend grew its receiver's dictionary %d -> %d", label, n, c.dict.Len())
			}
			for _, l := range []struct {
				name       string
				got, fresh [][]wordSim
			}{{"node", ext.nodeWords, fresh.nodeWords}, {"type", ext.typeWords, fresh.typeWords}, {"attr", ext.attrWords, fresh.attrWords}} {
				if len(l.got) != len(l.fresh) {
					t.Fatalf("%s: %d %s lists, a fresh tokenization has %d", label, len(l.got), l.name, len(l.fresh))
				}
				for i := range l.got {
					if !reflect.DeepEqual(l.got[i], l.fresh[i]) {
						t.Fatalf("%s: %s %d has %v, a fresh tokenization %v", label, l.name, i, l.got[i], l.fresh[i])
					}
				}
			}
			c = ext
		}
	}
}

// TestApplyDeltaReadsTheCorpus: given the engine's extended corpus and
// dirty roots, as the shard layer passes them, ApplyDelta tokenizes
// nothing and allocates nothing per graph node but its dirty-root
// membership vector. A one-node text edit over a 40,000-node graph of a
// six-word vocabulary allocates under 4 B a node; a word table sized to
// the graph (~25 B a node) fails it.
func TestApplyDeltaReadsTheCorpus(t *testing.T) {
	const n = 40000
	vocab := []string{"alpha", "beta", "gamma", "delta", "omega"}
	b := kg.NewBuilder()
	for i := 0; i < n-1; i++ {
		b.Entity("Thing", vocab[i%len(vocab)])
	}
	solo := b.Entity("Solo", "rarea")
	g := b.MustFreeze()
	c := NewCorpus(g, nil)
	opts := Options{D: 3, UniformPR: true, Workers: 1, Corpus: c}
	ix, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := kg.NewDelta(g)
	if err := d.SetText(solo, "rareb"); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	opts.Corpus, opts.DirtyRoots = c.Extend(ch), kg.AffectedRoots(ch, opts.D-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ds, err := ix.ApplyDelta(ch, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"rarea", "rareb", "solo"}; ds.DirtyRoots != 1 || !reflect.DeepEqual(ds.TouchedWords, want) {
		t.Fatalf("delta stats %+v, want one dirty root and touched words %q", ds, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*n {
		t.Fatalf("a one-node text edit over %d nodes allocated %d bytes (%.1f a node), want under 4 a node", n, grew, float64(grew)/n)
	}
}
