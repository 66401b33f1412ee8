package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
)

// updateSequences is the number of randomized update batches each dataset
// chain is driven through (the acceptance floor is 100+). Every sharded
// engine applies the same delta chain as the unsharded reference and must
// answer identically after every batch.
const updateSequences = 110

// randomUpdate stages 1..4 random valid mutations against g (mirroring
// internal/search's update property workload).
func randomUpdate(rng *rand.Rand, g *kg.Graph) (*kg.Changed, error) {
	d := kg.NewDelta(g)
	typeName := func() string {
		return g.TypeName(kg.TypeID(1 + rng.Intn(g.NumTypes()-1))) // never Literal
	}
	attrName := func() string { return g.AttrName(kg.AttrID(rng.Intn(g.NumAttrs()))) }
	node := func() kg.NodeID { return kg.NodeID(rng.Intn(g.NumNodes())) }
	texts := []string{"nova blend", "quartz", "ember field", "cobalt", "drift"}
	staged := 0
	for op := 0; op < 1+rng.Intn(4) || staged == 0; op++ {
		if op > 40 {
			break
		}
		switch rng.Intn(6) {
		case 0:
			if _, err := d.AddEntity(typeName(), texts[rng.Intn(len(texts))]); err == nil {
				staged++
			}
		case 1:
			if d.AddAttr(node(), attrName(), node()) == nil {
				staged++
			}
		case 2:
			if _, err := d.AddTextAttr(node(), attrName(), texts[rng.Intn(len(texts))]); err == nil {
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
			if d.RemoveEntity(node()) == nil {
				staged++
			}
		case 5:
			if d.SetText(node(), texts[rng.Intn(len(texts))]) == nil {
				staged++
			}
		}
	}
	return d.Apply()
}

// shardCounts are the widths the update chain runs at: the one-shard
// engine (direct execution) and partitions including a prime that never
// divides the synthetic type counts.
var shardCounts = []int{1, 2, 3, 8}

// testQueries derives a deterministic workload from the graph's texts:
// its first three distinct words longer than two letters.
func testQueries(g *kg.Graph) []string {
	var words []string
	seen := map[string]bool{}
	for v := 0; v < g.NumNodes() && len(words) < 3; v++ {
		for _, f := range strings.Fields(strings.ToLower(g.Text(kg.NodeID(v)))) {
			if len(f) > 2 && !seen[f] && len(words) < 3 {
				seen[f] = true
				words = append(words, f)
			}
		}
	}
	return words
}

// renderPattern snapshots one ranked pattern at full user-visible
// fidelity: exact score bits, aggregate, pattern text and composed table.
func renderPattern(g *kg.Graph, pt *core.PatternTable, p core.TreePattern, score float64, agg core.PatternScore, trees []core.Subtree, surfaces []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "score=%.17g sum=%.17g max=%.17g count=%d\n", score, agg.Sum, agg.Max, agg.Count)
	sb.WriteString(p.Render(g, pt, surfaces))
	sb.WriteByte('\n')
	sb.WriteString(core.ComposeTable(g, pt, p, trees).Render(-1))
	return sb.String()
}

// referenceResult runs the reference below the engine: the search
// executor on one unfiltered index.
func referenceResult(t testing.TB, g *kg.Graph, ix *index.Index, algo search.Algo, query string, opts search.Options) []string {
	t.Helper()
	words, surfaces := search.ResolveQuery(ix.Dict(), query)
	res, err := search.Execute(context.Background(), ix, words, surfaces, algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rp := range res.Patterns {
		out = append(out, renderPattern(g, ix.PatternTable(), rp.Pattern, rp.Score, rp.Agg, rp.Trees, res.Stats.Surfaces))
	}
	return out
}

// engineResult runs the engine at the same fidelity.
func engineResult(t testing.TB, e *Engine, algo search.Algo, query string, opts search.Options) []string {
	t.Helper()
	res, err := e.Search(context.Background(), algo, query, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(res.Patterns))
	for _, rp := range res.Patterns {
		out = append(out, renderPattern(e.Graph(), rp.Table, rp.Pattern, rp.Score, rp.Agg, rp.Trees, res.Stats.Surfaces))
	}
	return out
}

// TestShardUpdateEquivalence drives one reference index and an engine at
// every shard count through the same randomized delta chain; after every
// batch the engine's top-k (scores, signatures, composed tables) must equal
// the incrementally maintained reference index's for PE and LE.
func TestShardUpdateEquivalence(t *testing.T) {
	datasets := map[string]*kg.Graph{
		"wiki": dataset.SynthWiki(dataset.WikiConfig{Entities: 260, Types: 14, Seed: 3}),
		"imdb": dataset.SynthIMDB(dataset.IMDBConfig{Movies: 90, Seed: 3}),
	}
	for name, base := range datasets {
		iopts := index.Options{D: 3, UniformPR: name == "imdb"} // one dataset per PageRank mode
		ix, err := index.Build(base, iopts)
		if err != nil {
			t.Fatal(err)
		}
		engines := make([]*Engine, len(shardCounts))
		for i, n := range shardCounts {
			if engines[i], err = NewEngine(base, n, iopts); err != nil {
				t.Fatal(err)
			}
		}
		queries := testQueries(base)
		opts := search.Options{K: 8, MaxTreesPerPattern: 4}

		rng := rand.New(rand.NewSource(99))
		cur := ix
		for seq := 0; seq < updateSequences; seq++ {
			ch, err := randomUpdate(rng, cur.Graph())
			if err != nil {
				t.Fatalf("%s seq %d: %v", name, seq, err)
			}
			next, _, err := cur.ApplyDelta(ch, iopts)
			if err != nil {
				t.Fatalf("%s seq %d: %v", name, seq, err)
			}
			cur = next
			for i := range engines {
				ne, us, err := engines[i].ApplyDelta(ch)
				if err != nil {
					t.Fatalf("%s seq %d shards=%d: %v", name, seq, shardCounts[i], err)
				}
				if us.AffectedShards > shardCounts[i] {
					t.Fatalf("%s seq %d: %d affected shards out of %d", name, seq, us.AffectedShards, shardCounts[i])
				}
				engines[i] = ne
			}

			g := cur.Graph()
			for _, algo := range []search.Algo{search.AlgoPE, search.AlgoLE} {
				for _, q := range queries {
					want := referenceResult(t, g, cur, algo, q, opts)
					for i, e := range engines {
						got := engineResult(t, e, algo, q, opts)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s seq %d algo=%v shards=%d query=%q diverged:\nreference:\n%s\nengine:\n%s",
								name, seq, algo, shardCounts[i], q,
								strings.Join(want, "\n---\n"), strings.Join(got, "\n---\n"))
						}
					}
				}
			}
		}
	}
}

// TestShardRoutingSkipsUntouchedShards pins the routing contract: a
// text-only update re-enumerates only the shards owning affected roots,
// everyone else rebinds (same epoch, shared postings).
func TestShardRoutingSkipsUntouchedShards(t *testing.T) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 400, Types: 16, Seed: 5})
	e, err := NewEngine(g, 4, index.Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find a node whose affected-root set provably lands on a proper
	// subset of the shards (one always exists: some node's backward
	// d-neighborhood is small).
	var ch *kg.Changed
	owners := map[int]bool{}
	for v := 0; v < g.NumNodes(); v++ {
		d := kg.NewDelta(g)
		if err := d.SetText(kg.NodeID(v), "renamed thing"); err != nil {
			continue
		}
		c, err := d.Apply()
		if err != nil {
			t.Fatal(err)
		}
		dirty := kg.AffectedRoots(c, e.D()-1)
		owners = map[int]bool{}
		for _, r := range dirty {
			owners[e.Owner(r)] = true
		}
		if len(owners) > 0 && len(owners) < e.NumShards() {
			ch = c
			break
		}
	}
	if ch == nil {
		t.Fatal("no node with a proper-subset blast radius found")
	}
	ne, us, err := e.ApplyDelta(ch)
	if err != nil {
		t.Fatal(err)
	}
	if us.AffectedShards != len(owners) {
		t.Fatalf("text edit should touch exactly the %d shards owning dirty roots, got %d (dirty=%d)",
			len(owners), us.AffectedShards, us.DirtyRoots)
	}
	before, after := e.Epochs(), ne.Epochs()
	bumped := 0
	for i := range after {
		if after[i] != before[i] {
			bumped++
		} else if ne.Index(i).Graph() != ch.New {
			t.Fatalf("untouched shard %d not rebound to the new snapshot", i)
		}
	}
	if bumped != us.AffectedShards {
		t.Fatalf("epoch bumps (%d) != affected shards (%d)", bumped, us.AffectedShards)
	}
}

// TestOwnershipPartition pins that every live node is owned by exactly one
// shard and assignments survive updates (tombstoned nodes keep their
// shard).
func TestOwnershipPartition(t *testing.T) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 300, Types: 12, Seed: 9})
	e, err := NewEngine(g, 7, index.Options{D: 2, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := kg.NodeID(42)
	ownerBefore := e.Owner(victim)
	d := kg.NewDelta(g)
	if err := d.RemoveEntity(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddEntity(g.TypeName(2), "fresh node"); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	ne, _, err := e.ApplyDelta(ch)
	if err != nil {
		t.Fatal(err)
	}
	if ne.Owner(victim) != ownerBefore {
		t.Fatalf("tombstoned node moved shards: %d -> %d", ownerBefore, ne.Owner(victim))
	}
	added := kg.NodeID(ch.New.NumNodes() - 1)
	if o := ne.Owner(added); o < 0 || o >= 7 {
		t.Fatalf("added node owner out of range: %d", o)
	}
	// Per-shard stats partition the live nodes.
	total := 0
	for _, st := range ne.Stats() {
		total += st.Roots
	}
	live := ch.New.NumNodes() - ch.New.NumRemoved()
	if total != live {
		t.Fatalf("shard root counts sum to %d, want %d live nodes", total, live)
	}
}
