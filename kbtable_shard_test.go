package kbtable

import (
	"context"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestShardsZeroMeansOne pins the option's one normalisation: 0 (and
// anything below 1) is a one-shard engine, indistinguishable from 1.
func TestShardsZeroMeansOne(t *testing.T) {
	g := buildFig1Public(t)
	for _, shards := range []int{-3, 0, 1} {
		e, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		info := e.ShardInfo()
		if info.Count != 1 || len(info.Epochs) != 1 || len(info.Entries) != 1 ||
			!reflect.DeepEqual(info.Roots, []int{g.NumEntities()}) {
			t.Fatalf("Shards=%d: ShardInfo = %+v", shards, info)
		}
		if !e.Complete() || !reflect.DeepEqual(e.OwnedShards(), []int{0}) {
			t.Fatalf("Shards=%d: Complete=%v OwnedShards=%v", shards, e.Complete(), e.OwnedShards())
		}
	}
	// A cluster owner of the only shard is a complete engine.
	if e, err := NewEngine(g, EngineOptions{D: 3, OwnedShards: []int{0}}); err != nil || !e.Complete() {
		t.Fatalf("OwnedShards [0] of one shard: %v", err)
	}
}

// TestOneShardCheckpointLayout pins the on-disk form: a one-shard
// checkpoint is the graph plus one index file — no ownership table, no
// epochs — with the Shards option recorded as given, and a snapshot in
// that form loads whether its manifest says 0 or 1.
func TestOneShardCheckpointLayout(t *testing.T) {
	g := buildFig1Public(t)
	for _, shards := range []int{0, 1} {
		dir := t.TempDir()
		st, err := OpenStoreOpts(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var u Update
		u.AddEntity("Software", "Postgres")
		if e, _, err = e.ApplyLogged(st, u); err != nil { // epoch 1: still not persisted
			t.Fatal(err)
		}
		if cs, err := e.Checkpoint(st); err != nil || cs.Files != 2 {
			t.Fatalf("Shards=%d: checkpoint %+v err=%v, want 2 files", shards, cs, err)
		}
		sn, err := st.s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for name := range sn.Manifest.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		if !reflect.DeepEqual(names, []string{"graph.bin", "shard-000.idx"}) {
			t.Fatalf("Shards=%d: snapshot files %v", shards, names)
		}
		if sn.Manifest.Shards != shards || sn.Manifest.Epochs != nil {
			t.Fatalf("Shards=%d: manifest shards=%d epochs=%v", shards, sn.Manifest.Shards, sn.Manifest.Epochs)
		}
		entries, err := os.ReadDir(sn.Dir)
		if err != nil || len(entries) != 3 { // the two files and MANIFEST
			t.Fatalf("Shards=%d: snapshot dir holds %d entries (%v)", shards, len(entries), err)
		}
		for _, ask := range []int{0, 1} {
			rec, rs, err := st.Recover(EngineOptions{Shards: ask})
			if err != nil || rs.Shards != 1 || rec.ShardInfo().Count != 1 {
				t.Fatalf("manifest shards=%d, asked %d: %+v err=%v", shards, ask, rs, err)
			}
		}
		if _, _, err := st.Recover(EngineOptions{Shards: 2}); err == nil {
			t.Fatalf("manifest shards=%d recovered as 2 shards", shards)
		}
		st.Close()
	}
}

// TestShardedEngineErrors pins the unsupported-surface errors.
func TestShardedEngineErrors(t *testing.T) {
	g := buildFig1Public(t)
	if _, err := NewEngine(g, EngineOptions{Shards: 1000}); err == nil {
		t.Fatal("absurd shard count accepted")
	}
	sh, err := NewEngine(g, EngineOptions{D: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.SaveIndex(t.TempDir() + "/ix"); err == nil {
		t.Fatal("sharded SaveIndex should fail")
	}
	if _, err := NewEngineFromIndex(g, "nope", EngineOptions{Shards: 2}); err == nil {
		t.Fatal("sharded NewEngineFromIndex should fail")
	}
	if _, err := sh.ProbeShard(context.Background(), 2, "database", SearchOptions{}); err == nil {
		t.Fatal("probe of shard 2 of 2 succeeded")
	}
}
