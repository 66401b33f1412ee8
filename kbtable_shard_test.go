package kbtable

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"kbtable/internal/search"
	"kbtable/internal/shard"
)

// The engine is one type at every shard count; what these suites pin is
// that the count is invisible in the answers. The reference is the
// one-shard engine (EngineOptions.Shards 0 or 1: one index, queries run on
// its executor directly); every partition width below must reproduce it
// byte for byte — search, prepared execution, update chains, the auxiliary
// surfaces, and checkpoint → recover.
var shardWidths = []int{2, 3, 8}

// enginesOver builds the one-shard reference and one engine per width.
func enginesOver(t *testing.T, g *Graph, base EngineOptions) (one *Engine, many map[int]*Engine) {
	t.Helper()
	base.Shards = 1
	one, err := NewEngine(g, base)
	if err != nil {
		t.Fatal(err)
	}
	many = map[int]*Engine{}
	for _, n := range shardWidths {
		base.Shards = n
		if many[n], err = NewEngine(g, base); err != nil {
			t.Fatal(err)
		}
	}
	return one, many
}

// TestShardCountInvisibleInSearch: every algorithm, fresh and prepared,
// returns identical answer structs at every shard count.
func TestShardCountInvisibleInSearch(t *testing.T) {
	ctx := context.Background()
	for _, spec := range goldenCorpora() {
		g := loadCorpus(t, filepath.Join("testdata", "corpus", spec.name+".txt"))
		one, many := enginesOver(t, g, EngineOptions{D: 3})
		for _, algo := range []Algorithm{PatternEnum, LinearEnum, Baseline, Auto} {
			for _, q := range spec.queries {
				opts := SearchOptions{K: goldenK, Algorithm: algo, MaxRowsPerTable: goldenRows}
				want, err := one.SearchOpts(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				for n, e := range many {
					got, err := e.SearchOpts(q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s %v %q shards=%d: answers differ from one shard\n%s",
							spec.name, algo, q, n, diffHint(renderGolden(q, want), renderGolden(q, got)))
					}
					if algo == Baseline {
						continue // no prepare stage
					}
					pq, err := e.PrepareContext(context.Background(), q, opts)
					if err != nil {
						t.Fatal(err)
					}
					prep, _, err := pq.Search(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, prep) {
						t.Fatalf("%s %v %q shards=%d: prepared answers differ from one shard", spec.name, algo, q, n)
					}
				}
			}
		}
	}
}

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

// TestShardCountInvisibleInUpdates drives one accepted update chain
// through every shard count: results and post-update answers agree, shard
// routing stays within bounds, and superseded snapshots keep serving.
func TestShardCountInvisibleInUpdates(t *testing.T) {
	spec := goldenCorpora()[0]
	g := loadCorpus(t, filepath.Join("testdata", "corpus", spec.name+".txt"))
	one, many := enginesOver(t, g, EngineOptions{D: 3})
	for n, e := range many {
		info := e.ShardInfo()
		if info.Count != n || len(info.Epochs) != n || len(info.Entries) != n {
			t.Fatalf("shards=%d: ShardInfo = %+v", n, info)
		}
		total := 0
		for _, r := range info.Roots {
			total += r
		}
		if total != g.NumEntities() {
			t.Fatalf("shards=%d: shard roots sum to %d, want %d", n, total, g.NumEntities())
		}
	}

	rng := rand.New(rand.NewSource(11))
	first := map[int]*Engine{}
	for n, e := range many {
		first[n] = e
	}
	for step := 0; step < 10; step++ {
		u := randomBatchAccepted(t, rng, one)
		if step == 0 { // a word no snapshot before this update knows
			pg := u.AddEntity("Software", "Postgres")
			u.AddTextAttr(pg, "License", "zanzibar license")
		}
		next, ores, err := one.ApplyUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		if ores.AffectedShards != 1 {
			t.Fatalf("step %d: one shard, AffectedShards = %d", step, ores.AffectedShards)
		}
		one = next
		want := answersFingerprint(t, one, append([]string{"zanzibar license"}, spec.queries...))
		for _, n := range shardWidths {
			ne, res, err := many[n].ApplyUpdate(u)
			if err != nil {
				t.Fatalf("step %d shards=%d: %v", step, n, err)
			}
			many[n] = ne
			if !reflect.DeepEqual(ores.NewEntities, res.NewEntities) {
				t.Fatalf("step %d shards=%d: new entity IDs diverge: %v vs %v", step, n, ores.NewEntities, res.NewEntities)
			}
			if !reflect.DeepEqual(ores.TouchedWords, res.TouchedWords) || ores.ScoresRefreshed != res.ScoresRefreshed {
				t.Fatalf("step %d shards=%d: invalidation diverges: %v/%v vs %v/%v", step, n,
					ores.TouchedWords, ores.ScoresRefreshed, res.TouchedWords, res.ScoresRefreshed)
			}
			if ores.DirtyRoots != res.DirtyRoots || ores.EntriesAdded != res.EntriesAdded || ores.EntriesRemoved != res.EntriesRemoved {
				t.Fatalf("step %d shards=%d: splice counts diverge: %+v vs %+v", step, n, ores, res)
			}
			if res.AffectedShards < 1 || res.AffectedShards > n {
				t.Fatalf("step %d shards=%d: AffectedShards = %d", step, n, res.AffectedShards)
			}
			if got := answersFingerprint(t, ne, append([]string{"zanzibar license"}, spec.queries...)); got != want {
				t.Fatalf("step %d shards=%d: answers diverge from one shard:\n%s", step, n, diffHint(want, got))
			}
		}
	}
	// The superseded engines still serve their snapshots.
	for n, e := range first {
		if ans, err := e.Search("zanzibar license", 5); err != nil || len(ans) != 0 {
			t.Fatalf("shards=%d: old snapshot sees the update: %v, %v", n, ans, err)
		}
	}
}

// TestShardCountInvisibleInExplainAndTrees pins the auxiliary query
// surfaces.
func TestShardCountInvisibleInExplainAndTrees(t *testing.T) {
	one, many := enginesOver(t, buildFig1Public(t), EngineOptions{D: 3})
	fx, err := one.Explain("database software revenue")
	if err != nil {
		t.Fatal(err)
	}
	ft, err := one.SearchTrees("database software", 5)
	if err != nil {
		t.Fatal(err)
	}
	for n, e := range many {
		if sx, err := e.Explain("database software revenue"); err != nil || !reflect.DeepEqual(fx, sx) {
			t.Fatalf("shards=%d: Explain diverges: %+v vs %+v (err %v)", n, fx, sx, err)
		}
		if !reflect.DeepEqual(one.QueryWords("Databases SOFTWARE"), e.QueryWords("Databases SOFTWARE")) {
			t.Fatalf("shards=%d: QueryWords diverges", n)
		}
		st, err := e.SearchTrees("database software", 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ft, st) {
			t.Fatalf("shards=%d: SearchTrees diverges:\none:  %+v\nmany: %+v", n, ft, st)
		}
	}
}

// TestShardCountInvisibleInRecovery: checkpoint, log a WAL suffix, recover
// — at every shard count the recovered engine answers as the one-shard
// in-memory chain does.
func TestShardCountInvisibleInRecovery(t *testing.T) {
	spec := goldenCorpora()[1]
	g := loadCorpus(t, filepath.Join("testdata", "corpus", spec.name+".txt"))
	ref, err := NewEngine(g, EngineOptions{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var chain []Update
	for i := 0; i < 8; i++ {
		u := randomBatchAccepted(t, rng, ref)
		if ref, _, err = ref.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, u)
	}
	want := answersFingerprint(t, ref, spec.queries)

	for _, n := range append([]int{1}, shardWidths...) {
		dir := t.TempDir()
		st, err := OpenStoreOpts(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		live, err := NewEngine(g, EngineOptions{D: 3, Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range chain {
			if live, _, err = live.ApplyLogged(st, u); err != nil {
				t.Fatalf("shards=%d step %d: %v", n, i, err)
			}
			if i == len(chain)/2 { // snapshot mid-chain, WAL suffix after it
				if cs, err := live.Checkpoint(st); err != nil || cs.Skipped {
					t.Fatalf("shards=%d: checkpoint: %+v err=%v", n, cs, err)
				}
			}
		}
		st.Close()
		rec, st2, rs, err := OpenDirOpts(dir, EngineOptions{}, StoreOptions{})
		if err != nil {
			t.Fatalf("shards=%d: recover: %v", n, err)
		}
		if rs.Shards != n || rec.ShardInfo().Count != n || rs.Replayed != len(chain)-len(chain)/2-1 {
			t.Fatalf("shards=%d: recovery stats %+v, info %+v", n, rs, rec.ShardInfo())
		}
		if got := answersFingerprint(t, rec, spec.queries); got != want {
			t.Fatalf("shards=%d: recovered engine diverges from the one-shard chain:\n%s", n, diffHint(want, got))
		}
		st2.Close()
	}
}

// TestOneShardIsThePrunedExecutor: at one shard SearchPlan is the search
// executor on the engine's index with the caller's k — same answers, same
// plan statistics, same pruning counter — so routing one shard through
// the scatter's unbounded-k gather (which must switch the top-k bound
// pushdown off) fails here loudly.
func TestOneShardIsThePrunedExecutor(t *testing.T) {
	ctx := context.Background()
	var pruned int64
	for _, spec := range goldenCorpora() {
		g := loadCorpus(t, filepath.Join("testdata", "corpus", spec.name+".txt"))
		e, err := NewEngine(g, EngineOptions{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		ix := e.sh.Index(0)
		for _, algo := range []Algorithm{PatternEnum, LinearEnum, Auto} {
			for _, q := range spec.queries {
				opts := SearchOptions{K: 3, Algorithm: algo, MaxRowsPerTable: goldenRows}
				got, pi, err := e.SearchPlan(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				salgo, _ := searchAlgo(algo)
				res, err := search.Executor{Ix: ix}.Search(ctx, q, salgo, e.searchOptions(opts))
				if err != nil {
					t.Fatal(err)
				}
				direct := &shard.Result{Stats: res.Stats, Plan: res.Plan}
				for _, rp := range res.Patterns {
					direct.Patterns = append(direct.Patterns, shard.RankedPattern{
						Pattern: rp.Pattern, Table: ix.PatternTable(), Agg: rp.Agg, Score: rp.Score, Trees: rp.Trees,
					})
				}
				want := e.answers(direct)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s %v %q: answers differ from the executor's\n%s",
						spec.name, algo, q, diffHint(renderGolden(q, want), renderGolden(q, got)))
				}
				wpi := planInfo(res.Plan, res.Stats)
				if pi.Algorithm != wpi.Algorithm || pi.Auto != wpi.Auto || pi.BoundPruned != wpi.BoundPruned ||
					pi.CandidateRoots != wpi.CandidateRoots || pi.PatternSpace != wpi.PatternSpace || pi.Frontier != wpi.Frontier {
					t.Fatalf("%s %v %q: plan info differs from the executor's:\nengine:   %+v\nexecutor: %+v", spec.name, algo, q, pi, wpi)
				}
				if pi.Algorithm == PatternEnum {
					pruned += pi.BoundPruned
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no PatternEnum query pruned anything: the one-shard path is not running with the caller's k")
	}
}

// selfExec serves cluster legs from the engine it is asked about.
type selfExec struct{ e *Engine }

func (x selfExec) ProbeShard(ctx context.Context, si int, q string, o SearchOptions) (ShardPlanStats, error) {
	return x.e.ProbeShard(ctx, si, q, o)
}

func (x selfExec) ScatterShard(ctx context.Context, si int, a Algorithm, q string, o SearchOptions) (*ShardPartial, error) {
	return x.e.ScatterShard(ctx, si, a, q, o)
}

// TestOneShardClusterLeg: a one-shard engine serves the cluster legs like
// any other — probe and scatter shard 0, gather the single partial — and
// the gathered answers are SearchPlan's, byte for byte.
func TestOneShardClusterLeg(t *testing.T) {
	ctx := context.Background()
	for _, spec := range goldenCorpora() {
		g := loadCorpus(t, filepath.Join("testdata", "corpus", spec.name+".txt"))
		e, err := NewEngine(g, EngineOptions{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{PatternEnum, LinearEnum, Auto, Baseline} {
			for _, q := range spec.queries {
				opts := SearchOptions{K: goldenK, Algorithm: algo, MaxRowsPerTable: goldenRows}
				want, wpi, err := e.SearchPlan(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, gpi, err := e.SearchDistributed(ctx, selfExec{e}, q, opts)
				if err != nil {
					t.Fatalf("%s %v %q: %v", spec.name, algo, q, err)
				}
				if w, g := renderGolden(q, want), renderGolden(q, got); w != g || !reflect.DeepEqual(want, got) {
					t.Fatalf("%s %v %q: gathered leg differs from SearchPlan\n%s", spec.name, algo, q, diffHint(w, g))
				}
				if gpi.Algorithm != wpi.Algorithm {
					t.Fatalf("%s %v %q: resolved %v through the leg, %v directly", spec.name, algo, q, gpi.Algorithm, wpi.Algorithm)
				}
			}
		}
		if _, err := e.ProbeShard(ctx, 1, spec.queries[0], SearchOptions{}); err == nil {
			t.Fatal("probe of shard 1 of 1 succeeded")
		}
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
