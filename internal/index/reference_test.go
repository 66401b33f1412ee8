package index

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// referencePaths enumerates, by a direct recursive walk with no shared
// state or interning, every (word, root, pattern, path) posting that
// Algorithm 1 should produce: simple paths of at most d nodes from every
// root, ending at nodes (text or type words) or edges (attribute words).
// It is deliberately naive — the oracle for the optimized builder.
func referencePaths(g *kg.Graph, d int) map[string][]string {
	out := map[string][]string{}
	norm := func(tok string) string {
		dict := text.NewDict()
		return dict.Word(dict.Canonical(dict.Intern(tok)))
	}
	record := func(word string, root kg.NodeID, p core.Path, patKey string) {
		key := norm(word)
		out[key] = append(out[key], fmt.Sprintf("r%d|%s|%v|%v", root, patKey, p.Edges, p.EdgeEnd))
	}
	var walk func(root, cur kg.NodeID, edges []kg.EdgeID, onPath map[kg.NodeID]bool)
	walk = func(root, cur kg.NodeID, edges []kg.EdgeID, onPath map[kg.NodeID]bool) {
		p := core.Path{Root: root, Edges: append([]kg.EdgeID(nil), edges...)}
		patKey := p.Pattern(g).Key()
		words := map[string]bool{}
		for _, tok := range text.TokenSet(g.Text(cur)) {
			words[tok] = true
		}
		if g.Type(cur) != kg.LiteralType {
			for _, tok := range text.TokenSet(g.TypeName(g.Type(cur))) {
				words[tok] = true
			}
		}
		for tok := range words {
			record(tok, root, p, patKey)
		}
		if len(edges) >= d-1 {
			return
		}
		for _, eid := range outEdgeIDs(g, cur) {
			e := g.Edge(eid)
			if onPath[e.Dst] {
				continue
			}
			ep := core.Path{Root: root, Edges: append(append([]kg.EdgeID(nil), edges...), eid), EdgeEnd: true}
			epKey := ep.Pattern(g).Key()
			for _, tok := range text.TokenSet(g.AttrName(e.Attr)) {
				record(tok, root, ep, epKey)
			}
			onPath[e.Dst] = true
			walk(root, e.Dst, append(edges, eid), onPath)
			onPath[e.Dst] = false
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		walk(kg.NodeID(v), kg.NodeID(v), nil, map[kg.NodeID]bool{kg.NodeID(v): true})
	}
	for k := range out {
		sort.Strings(out[k])
	}
	return out
}

func outEdgeIDs(g *kg.Graph, v kg.NodeID) []kg.EdgeID {
	first, n := g.OutEdges(v)
	out := make([]kg.EdgeID, n)
	for i := range out {
		out[i] = first + kg.EdgeID(i)
	}
	return out
}

// indexedPaths extracts the same normalized posting strings from a built
// index.
func indexedPaths(ix *Index) map[string][]string {
	out := map[string][]string{}
	g := ix.Graph()
	for w := 0; w < ix.Dict().Len(); w++ {
		id := text.WordID(w)
		if ix.Dict().Canonical(id) != id {
			continue // postings live under the canonical id only
		}
		var recs []string
		at := 0
		for _, r := range ix.Roots(id) {
			for _, ps := range ix.RunsAt(nil, id, r, &at) {
				for k := 0; k < ps.Len(); k++ {
					p := ps.Path(k)
					recs = append(recs, fmt.Sprintf("r%d|%s|%v|%v", r, p.Pattern(g).Key(), p.Edges, p.EdgeEnd))
				}
			}
		}
		if len(recs) > 0 {
			sort.Strings(recs)
			out[ix.Dict().Word(id)] = recs
		}
	}
	return out
}

// TestIndexMatchesBruteForceReference cross-checks the optimized parallel
// builder against the naive oracle on random graphs across d values.
func TestIndexMatchesBruteForceReference(t *testing.T) {
	vocab := []string{"ant", "bee", "cat", "dog", "elk"}
	types := []string{"Alpha", "Beta", "Gamma"}
	attrs := []string{"likes", "eats", "sees"}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := kg.NewBuilder()
		n := 5 + rng.Intn(12)
		ids := make([]kg.NodeID, n)
		for i := 0; i < n; i++ {
			txt := vocab[rng.Intn(len(vocab))]
			if rng.Float64() < 0.4 {
				txt += " " + vocab[rng.Intn(len(vocab))]
			}
			ids[i] = b.Entity(types[rng.Intn(len(types))], txt)
		}
		for i := 0; i < 2*n; i++ {
			b.Attr(ids[rng.Intn(n)], attrs[rng.Intn(len(attrs))], ids[rng.Intn(n)])
		}
		g := b.MustFreeze()
		for _, d := range []int{1, 2, 3} {
			ix, err := Build(g, Options{D: d, UniformPR: true, Workers: 1 + int(seed%3)})
			if err != nil {
				t.Fatal(err)
			}
			want := referencePaths(g, d)
			got := indexedPaths(ix)
			// Words in the reference correspond to canonical forms; both
			// sides normalize through a fresh dictionary's stem logic, so
			// keys must line up exactly.
			for w, wantRecs := range want {
				gotRecs, ok := got[w]
				if !ok {
					t.Fatalf("seed=%d d=%d: word %q missing from index (want %d postings)", seed, d, w, len(wantRecs))
				}
				if strings.Join(gotRecs, ";") != strings.Join(wantRecs, ";") {
					t.Fatalf("seed=%d d=%d word=%q: postings differ\n got: %v\nwant: %v", seed, d, w, gotRecs, wantRecs)
				}
			}
			for w := range got {
				if _, ok := want[w]; !ok {
					t.Fatalf("seed=%d d=%d: index has unexpected word %q", seed, d, w)
				}
			}
		}
	}
}
