package kbtable

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kbtable/internal/kg"
)

// The durable-recovery equivalence suite: for random UpdateOp chains on
// the golden corpora (sharded and unsharded), snapshot + WAL recovery
// must produce byte-identical golden answers to the in-memory engine
// that executed the same history — including after a simulated torn
// final WAL record.

// randomBatch stages 1..4 random UpdateOps against the engine's current
// graph. Some batches fail validation (removed nodes, literal sources);
// the driver skips those on both chains, which keeps the histories
// identical.
func randomBatch(rng *rand.Rand, g *kg.Graph) Update {
	var u Update
	// Texts overlap the golden queries' vocabulary so updates actually
	// move answers, not just the graph.
	texts := []string{
		"washington river", "software revenue", "night star", "king taylor",
		"cobalt drift", "database capital", "movie director", "quartz",
	}
	typeName := func() string {
		return g.TypeName(kg.TypeID(1 + rng.Intn(g.NumTypes()-1))) // skip Literal
	}
	attrName := func() string { return g.AttrName(kg.AttrID(rng.Intn(g.NumAttrs()))) }
	node := func() int64 { return int64(rng.Intn(g.NumNodes())) }
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			u.AddEntity(typeName(), texts[rng.Intn(len(texts))])
		case 1:
			u.AddAttr(node(), attrName(), node())
		case 2:
			u.AddTextAttr(node(), attrName(), texts[rng.Intn(len(texts))])
		case 3:
			if g.NumEdges() > 0 {
				e := g.Edge(kg.EdgeID(rng.Intn(g.NumEdges())))
				u.RemoveEdge(int64(e.Src), g.AttrName(e.Attr), int64(e.Dst))
			}
		case 4:
			u.RemoveEntity(node())
		case 5:
			u.SetText(node(), texts[rng.Intn(len(texts))])
		case 6:
			// Back-reference chain: new entity immediately wired in.
			ref := u.AddEntity(typeName(), texts[rng.Intn(len(texts))])
			u.AddAttr(ref, attrName(), node())
		}
	}
	if len(u.Ops) == 0 {
		u.AddEntity(typeName(), texts[0])
	}
	return u
}

// answersFingerprint renders every golden query at full fidelity.
func answersFingerprint(t *testing.T, e *Engine, queries []string) string {
	t.Helper()
	out := ""
	for _, q := range queries {
		answers, err := e.SearchOpts(q, SearchOptions{K: goldenK, MaxRowsPerTable: goldenRows})
		if err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		out += renderGolden(q, answers) + "\n===\n"
	}
	return out
}

func TestDurableRecoveryEquivalence(t *testing.T) {
	for _, spec := range goldenCorpora() {
		for _, shards := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s-shards%d", spec.name, shards), func(t *testing.T) {
				t.Parallel()
				g := spec.graph(t)
				opts := EngineOptions{D: 3, Shards: shards}
				dir := t.TempDir()

				st, err := OpenStoreOpts(dir, StoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				live, err := NewEngine(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref := live // pure in-memory chain over the same history
				if cs, err := live.Checkpoint(st); err != nil || cs.Skipped {
					t.Fatalf("seed checkpoint: %+v err=%v", cs, err)
				}

				rng := rand.New(rand.NewSource(int64(len(spec.name)*100 + shards)))
				const steps = 24
				for step := 1; step <= steps; step++ {
					u := randomBatch(rng, live.g.g)
					nref, _, err := ref.ApplyUpdate(u)
					if err != nil {
						continue // invalid batch: skipped on both chains
					}
					nlive, _, err := live.ApplyLogged(st, u)
					if err != nil {
						t.Fatalf("step %d: in-memory accepted but ApplyLogged failed: %v", step, err)
					}
					if nlive.Seq() == 0 {
						t.Fatalf("step %d: logged engine has no seq", step)
					}
					ref, live = nref, nlive

					// Mid-chain checkpoint: later recoveries must combine
					// this snapshot with the WAL suffix after it.
					if step == steps/2 {
						if cs, err := live.Checkpoint(st); err != nil || cs.Skipped || cs.Bytes == 0 {
							t.Fatalf("mid-chain checkpoint: %+v err=%v", cs, err)
						}
					}
					if step%8 != 0 && step != steps {
						continue
					}

					rec, rs, err := st.Recover(EngineOptions{})
					if err != nil {
						t.Fatalf("step %d: recover: %v", step, err)
					}
					if rs.Seq != live.Seq() {
						t.Fatalf("step %d: recovered to seq %d, live is at %d (stats %+v)", step, rs.Seq, live.Seq(), rs)
					}
					if rs.TornTail {
						t.Fatalf("step %d: clean log reported torn: %+v", step, rs)
					}
					want := answersFingerprint(t, ref, spec.queries)
					if got := answersFingerprint(t, rec, spec.queries); got != want {
						t.Fatalf("step %d: recovered engine diverges from in-memory history:\n%s",
							step, diffHint(want, got))
					}
				}

				// Torn final record: append one more batch, then chop
				// bytes off its WAL record. Recovery must land exactly on
				// the history minus the torn batch — i.e. on the state the
				// step loop just validated (preTorn), never a partial or
				// doubled application.
				want := answersFingerprint(t, ref, spec.queries)
				preTornSeq := live.Seq()
				u := randomBatchAccepted(t, rng, live)
				var err2 error
				if live, _, err2 = live.ApplyLogged(st, u); err2 != nil {
					t.Fatal(err2)
				}
				st.Close()
				chopWALTail(t, dir, 5)

				rec2, st2, rs2, err := OpenDirOpts(dir, EngineOptions{}, StoreOptions{})
				if err != nil {
					t.Fatalf("recover after torn tail: %v", err)
				}
				defer st2.Close()
				if !rs2.TornTail {
					t.Fatalf("torn tail not reported: %+v", rs2)
				}
				if rs2.Seq != preTornSeq {
					t.Fatalf("torn recovery at seq %d, want %d", rs2.Seq, preTornSeq)
				}
				if got := answersFingerprint(t, rec2, spec.queries); got != want {
					t.Fatalf("torn-tail recovery diverges:\n%s", diffHint(want, got))
				}
			})
		}
	}
}

// randomBatchAccepted draws batches until one passes validation.
func randomBatchAccepted(t *testing.T, rng *rand.Rand, e *Engine) Update {
	t.Helper()
	for i := 0; i < 100; i++ {
		u := randomBatch(rng, e.g.g)
		if _, _, err := e.ApplyUpdate(u); err == nil {
			return u
		}
	}
	t.Fatal("could not draw a valid batch")
	return Update{}
}

// chopWALTail truncates the last WAL segment that has content by n
// bytes, simulating a crash mid-append.
func chopWALTail(t *testing.T, dir string, n int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range ents {
		name := e.Name()
		if len(name) > 4 && name[:4] == "wal-" {
			if fi, err := e.Info(); err == nil && fi.Size() > 0 {
				last = filepath.Join(dir, name)
			}
		}
	}
	if last == "" {
		t.Fatal("no non-empty wal segment to corrupt")
	}
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDirFreshDirectory(t *testing.T) {
	dir := t.TempDir()
	_, st, _, err := OpenDirOpts(dir, EngineOptions{}, StoreOptions{})
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("fresh dir: want ErrNoSnapshot, got %v", err)
	}
	if st == nil {
		t.Fatal("fresh dir: OpenDirOpts should hand back the open store for seeding")
	}

	// Seeding: build, checkpoint into the returned store, reopen.
	g := loadCorpus(t, filepath.Join("testdata", "corpus", "wiki.txt"))
	eng, err := NewEngine(g, EngineOptions{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := eng.Checkpoint(st)
	if err != nil || cs.Skipped {
		t.Fatalf("seed checkpoint: %+v err=%v", cs, err)
	}
	if cs.Files < 2 || cs.Bytes == 0 {
		t.Fatalf("checkpoint wrote nothing: %+v", cs)
	}
	// Same-seq re-checkpoint skips.
	if cs2, err := eng.Checkpoint(st); err != nil || !cs2.Skipped {
		t.Fatalf("re-checkpoint: %+v err=%v", cs2, err)
	}
	st.Close()

	rec, st2, rs, err := OpenDirOpts(dir, EngineOptions{Workers: 2}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rs.SnapshotSeq != 0 || rs.Replayed != 0 || rs.Shards != 1 {
		t.Fatalf("recover stats: %+v", rs)
	}
	q := "washington city"
	want, err := eng.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if renderGolden(q, want) != renderGolden(q, got) {
		t.Fatal("recovered answers diverge from the built engine")
	}
}

func TestRecoverOptionValidation(t *testing.T) {
	dir := t.TempDir()
	g := loadCorpus(t, filepath.Join("testdata", "corpus", "imdb.txt"))
	eng, err := NewEngine(g, EngineOptions{D: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreOpts(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := eng.Checkpoint(st); err != nil {
		t.Fatal(err)
	}

	if _, _, err := st.Recover(EngineOptions{D: 3}); err == nil {
		t.Error("d mismatch accepted")
	}
	if _, _, err := st.Recover(EngineOptions{Shards: 4}); err == nil {
		t.Error("shard mismatch accepted")
	}
	rec, rs, err := st.Recover(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Shards != 2 || rec.ShardInfo().Count != 2 {
		t.Fatalf("recovered shard layout: stats %+v, info %+v", rs, rec.ShardInfo())
	}
	if rec.o.D != 2 {
		t.Fatalf("recovered d=%d", rec.o.D)
	}
}

func TestApplyLoggedRequiresStore(t *testing.T) {
	g := loadCorpus(t, filepath.Join("testdata", "corpus", "imdb.txt"))
	eng, err := NewEngine(g, EngineOptions{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	var u Update
	u.AddEntity("Movie", "midnight star")
	if _, _, err := eng.ApplyLogged(nil, u); err == nil {
		t.Fatal("nil store accepted")
	}
	// A rejected batch must not reach the WAL.
	dir := t.TempDir()
	st, err := OpenStoreOpts(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var bad Update
	bad.RemoveEntity(1 << 40)
	if _, _, err := eng.ApplyLogged(st, bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if s := st.Stats(); s.LastSeq != 0 {
		t.Fatalf("rejected batch was logged: %+v", s)
	}
}
