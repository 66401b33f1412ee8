package kbtable

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
	"kbtable/internal/store"
)

// requireOneDict fails unless every resident shard of e indexes with the
// engine's dictionary, the very same *text.Dict.
func requireOneDict(t *testing.T, label string, e *Engine) {
	t.Helper()
	for si := 0; si < e.sh.NumShards(); si++ {
		if ix := e.sh.Index(si); ix != nil && ix.Dict() != e.sh.Dict() {
			t.Fatalf("%s: shard %d keeps a dictionary of its own", label, si)
		}
	}
}

// TestShardsShareOneDictionary: a three-shard engine's shards index with
// one dictionary after Build, after each step of an update chain — an
// isolated entity (its owner splices, the others Rebind to the new
// PageRank), a new text for it (one shard splices, two only Rebind), a new
// text elsewhere — and after a checkpoint and recovery.
func TestShardsShareOneDictionary(t *testing.T) {
	g := loadCorpus(t, "testdata/corpus/wiki.txt")
	e := matrixEngine(t, g, 3)
	requireOneDict(t, "build", e)
	var add Update
	add.AddEntity("Observatory", "quartz nebula")
	e, res, err := e.ApplyUpdate(add)
	if err != nil {
		t.Fatal(err)
	}
	requireOneDict(t, "add", e)
	var retext Update
	retext.SetText(int64(res.NewEntities[0]), "zeta drift")
	if e, res, err = e.ApplyUpdate(retext); err != nil || res.AffectedShards != 1 {
		t.Fatalf("retext: %+v, %v; want one shard spliced and two rebound", res, err)
	}
	requireOneDict(t, "retext", e)
	var other Update
	other.SetText(1, "cobalt washington")
	if e, _, err = e.ApplyUpdate(other); err != nil {
		t.Fatal(err)
	}
	requireOneDict(t, "retext elsewhere", e)
	if e.sh.Dict().Lookup("zeta") < 0 || e.sh.Dict().Lookup("cobalt") < 0 {
		t.Fatal("the chain's new words are missing from the engine's dictionary")
	}
	requireOneDict(t, "recovered", recovered(t, e))
}

// TestPartialEngineResolvesCoordinatorWords: a cluster owner's partial
// engine, following the coordinator's update chain, resolves every query
// to the coordinator's word IDs — synonyms included, whose registration
// order no longer depends on map iteration.
func TestPartialEngineResolvesCoordinatorWords(t *testing.T) {
	g := loadCorpus(t, "testdata/corpus/wiki.txt")
	opts := EngineOptions{D: 3, Shards: 3, Synonyms: map[string]string{"metropolis": "city", "firm": "company", "burg": "city", "corp": "company"}}
	coord, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var owners []*Engine
	for si := 0; si < 3; si++ {
		o := opts
		o.OwnedShards = []int{si}
		owner, err := NewEngine(g, o)
		if err != nil {
			t.Fatal(err)
		}
		owners = append(owners, owner)
	}
	rng := rand.New(rand.NewSource(47))
	queries := []string{"metropolis firm", "washington city population", "quartz nebula cobalt", "burg corp revenue"}
	for step := 0; step <= 3; step++ {
		for si, owner := range owners {
			requireOneDict(t, "owner", owner)
			if !owner.sh.Dict().Equal(coord.sh.Dict()) {
				t.Fatalf("step %d: owner of shard %d numbers words unlike the coordinator", step, si)
			}
			for _, q := range queries {
				ids, surfaces := search.ResolveQuery(owner.sh.Dict(), q)
				want, wantSurfaces := search.ResolveQuery(coord.sh.Dict(), q)
				if !reflect.DeepEqual(ids, want) || !reflect.DeepEqual(surfaces, wantSurfaces) {
					t.Fatalf("step %d, owner of shard %d, %q: words %v %q, coordinator's %v %q", step, si, q, ids, surfaces, want, wantSurfaces)
				}
			}
		}
		if step == 3 {
			break
		}
		u := randomBatchAccepted(t, rng, coord)
		u.AddEntity("Observatory", "quartz nebula cobalt")
		if coord, _, err = coord.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
		for si := range owners {
			if owners[si], _, err = owners[si].ApplyUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRecoverRefusesDisagreeingShardDictionaries: a snapshot whose shard
// files carry different dictionaries — what a build that kept one
// dictionary per shard checkpointed after an update that brought shard 1
// a word shard 0 never saw — is refused with an error naming the shard.
func TestRecoverRefusesDisagreeingShardDictionaries(t *testing.T) {
	g := fixtureGraph(t)
	e := matrixEngine(t, g, 2)
	corpus := index.NewCorpus(g.g, nil)
	corpus.Dict().Intern("zeta")
	other, err := index.Build(g.g, index.Options{D: 3, Corpus: corpus, PageRank: e.sh.PageRank(),
		RootFilter: func(v kg.NodeID) bool { return e.sh.Owner(v) == 1 }})
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreOpts(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := store.Manifest{D: 3, Shards: 2, Epochs: e.sh.Epochs(), Nodes: g.g.NumNodes(), Edges: g.g.NumEdges(), IndexWireVersion: index.WireVersion}
	files := map[string]func(io.Writer) error{
		store.GraphFileName:    g.g.Encode,
		store.IndexFileName(0): func(w io.Writer) error { return e.sh.EncodeShard(0, w) },
		store.IndexFileName(1): other.Encode,
		store.OwnersFileName:   func(w io.Writer) error { _, err := w.Write(e.sh.Owners()); return err },
	}
	if _, err := st.s.Checkpoint(m, files); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Recover(EngineOptions{}); err == nil || !strings.Contains(err.Error(), "shard 1 dictionary") {
		t.Fatalf("recovery of disagreeing shard dictionaries: %v, want an error naming shard 1", err)
	}
}
