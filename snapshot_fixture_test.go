package kbtable

import (
	"os"
	"path/filepath"
	"testing"

	"kbtable/internal/index"
	"kbtable/internal/store"
)

// The snapshot format-compatibility gate: a small snapshot + WAL
// fixture is checked in under testdata/snapshot, and every build must
// keep loading it byte-for-byte — or bump the manifest/index format
// versions and regenerate with `make snapshot-fixture` (an explicit,
// reviewed act). This is what lets a node restart onto a newer binary
// without rebuilding its indexes.
//
// Regenerate: go test -run TestSnapshotFixture -update .

const fixtureDir = "testdata/snapshot"

// fixtureQueries are pinned by testdata/snapshot/answers.golden.
var fixtureQueries = []string{"software company revenue", "database developer"}

// fixtureGraph builds the deterministic mini knowledge base the fixture
// snapshots (a Figure 1 variant).
func fixtureGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	sql := b.Entity("Software", "SQL Server database")
	ms := b.Entity("Company", "Microsoft")
	gates := b.Entity("Person", "Bill Gates")
	odb := b.Entity("Software", "Oracle DB database")
	oc := b.Entity("Company", "Oracle Corp")
	book := b.Entity("Book", "Handbook of Database Software")
	sp := b.Entity("Company", "Springer")
	b.Attr(sql, "Developer", ms)
	b.Attr(odb, "Developer", oc)
	b.Attr(sql, "Reference", book)
	b.Attr(book, "Publisher", sp)
	b.Attr(ms, "Founder", gates)
	b.TextAttr(ms, "Revenue", "US$ 77 billion")
	b.TextAttr(oc, "Revenue", "US$ 37 billion")
	b.TextAttr(sp, "Revenue", "US$ 1 billion")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fixtureUpdates are the two deterministic batches the fixture's WAL
// holds beyond its snapshot (so the gate also covers WAL decoding).
func fixtureUpdates() []Update {
	var u1 Update
	pg := u1.AddEntity("Software", "Postgres database")
	u1.AddTextAttr(pg, "License", "open source")
	var u2 Update
	u2.SetText(2, "William Gates")
	u2.AddAttr(int64(3), "Rival", int64(0))
	return []Update{u1, u2}
}

func regenerateFixture(t *testing.T) {
	t.Helper()
	if err := os.RemoveAll(fixtureDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(fixtureDir, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreOpts(fixtureDir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, err := NewEngine(fixtureGraph(t), EngineOptions{D: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	for _, u := range fixtureUpdates() {
		if eng, _, err = eng.ApplyLogged(st, u); err != nil {
			t.Fatal(err)
		}
	}
	golden := answersFingerprint(t, eng, fixtureQueries)
	if err := os.WriteFile(filepath.Join(fixtureDir, "answers.golden"), []byte(golden), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFixture(t *testing.T) {
	if *updateGolden {
		regenerateFixture(t)
	}
	if _, err := os.Stat(filepath.Join(fixtureDir)); err != nil {
		t.Fatalf("fixture missing: %v (regenerate with `make snapshot-fixture`)", err)
	}

	// The manifest's format version must be exactly what this build
	// writes: a version bump without a regenerated fixture fails here,
	// and a regenerated fixture without a version bump fails the other
	// branch — so either way the incompatibility is an explicit choice.
	raw, err := store.Open(fixtureDir)
	if err != nil {
		t.Fatalf("open fixture store: %v", err)
	}
	sn, err := raw.Snapshot()
	raw.Close()
	if err != nil {
		t.Fatalf("fixture snapshot: %v", err)
	}
	if sn.Manifest.FormatVersion != store.FormatVersion {
		t.Fatalf("fixture has manifest format %d, this build writes %d — regenerate with `make snapshot-fixture`",
			sn.Manifest.FormatVersion, store.FormatVersion)
	}
	if sn.Manifest.IndexWireVersion != index.WireVersion {
		t.Fatalf("fixture snapshot carries index wire version %d, this build writes %d — regenerate with `make snapshot-fixture`",
			sn.Manifest.IndexWireVersion, index.WireVersion)
	}
	// The manifest claim must match the bytes on disk: recovery loads
	// every index file through index.Load, which refuses anything but the
	// current wire format.
	eng, st, rs, err := OpenDirOpts(fixtureDir, EngineOptions{}, StoreOptions{})
	if err != nil {
		t.Fatalf("this build can no longer load the checked-in snapshot fixture: %v\n"+
			"If the format change is intentional, bump store.FormatVersion (and/or index.WireVersion) and run `make snapshot-fixture`.", err)
	}
	defer st.Close()
	if rs.Replayed != len(fixtureUpdates()) || rs.TornTail {
		t.Fatalf("fixture recovery: %+v", rs)
	}
	if rs.Shards != 2 {
		t.Fatalf("fixture shard count: %+v", rs)
	}

	want, err := os.ReadFile(filepath.Join(fixtureDir, "answers.golden"))
	if err != nil {
		t.Fatalf("read answers.golden: %v (regenerate with `make snapshot-fixture`)", err)
	}
	if got := answersFingerprint(t, eng, fixtureQueries); got != string(want) {
		t.Fatalf("fixture answers diverge from answers.golden:\n%s", diffHint(string(want), got))
	}
}
