package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// TestServeBackgroundCheckpoint pins the WAL-lag trigger: with
// CheckpointEvery=2, the third update must eventually produce a
// snapshot that truncates the log.
func TestServeBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng := fig1Engine(t, 2) // sharded: checkpoint covers per-shard files
	st, err := kbtable.OpenStoreOpts(dir, kbtable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := eng.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Engine: eng, D: 3, Store: st, CheckpointEvery: 2})
	h := srv.Handler()

	for i := 0; i < 4; i++ {
		var u kbtable.Update
		u.AddAttr(u.AddEntity("Software", fmt.Sprintf("DB %d", i)), "Developer", 2) // Microsoft
		if _, err := srv.Apply(u); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		hr := getHealth(t, h)
		if hr.Durability.Checkpoints >= 1 && hr.Durability.SnapshotSeq >= 2 {
			if hr.Durability.CheckpointErrors != 0 {
				t.Fatalf("checkpoint errors: %+v", hr.Durability)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpoint never landed: %+v", hr.Durability)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// CheckpointNow catches the rest; a recovery then replays little.
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ss := st.Stats()
	if ss.SnapshotSeq != 4 {
		t.Fatalf("CheckpointNow did not cover the log: %+v", ss)
	}
	rec, rs, err := st.Recover(kbtable.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != 0 || rs.Shards != 2 {
		t.Fatalf("post-checkpoint recovery: %+v", rs)
	}
	if rec.ShardInfo().Count != 2 {
		t.Fatalf("recovered shard count: %+v", rec.ShardInfo())
	}
}

// TestWALSegmentsMaxIsCapped pins the bound on one replication pull: a
// coordinator keeps its whole WAL, so ?max= above the ceiling must not
// make one response carry all of it. The reply is cut at the ceiling and
// More tells the follower to pull again.
func TestWALSegmentsMaxIsCapped(t *testing.T) {
	eng := fig1Engine(t, 0)
	st, err := kbtable.OpenStoreOpts(t.TempDir(), kbtable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := eng.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	// Enqueue the whole chain before waiting, so the records share a
	// handful of group-committed fsyncs.
	const records = maxWALPull + 6
	var last *kbtable.Commit
	for i := 0; i < records; i++ {
		var u kbtable.Update
		u.SetText(0, fmt.Sprintf("SQL Server %d", i))
		if eng, _, last, err = eng.ApplyLoggedAsync(st, u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Engine: eng, D: 3, Store: st, CheckpointEvery: -1}).Handler()

	pull := func(query string) api.WALSegmentsResponse {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/wal/segments?"+query, nil))
		var resp api.WALSegmentsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
			t.Fatalf("pull %s: %d %v (%.200s)", query, w.Code, err, w.Body.String())
		}
		return resp
	}
	first := pull("after=0&max=1000000000")
	if len(first.Records) != maxWALPull || first.LastSeq != maxWALPull || !first.More {
		t.Fatalf("huge max: %d records, last_seq %d, more %v; want %d, %d, true",
			len(first.Records), first.LastSeq, first.More, maxWALPull, maxWALPull)
	}
	rest := pull(fmt.Sprintf("after=%d&max=1000000000", first.LastSeq))
	if len(rest.Records) != records-maxWALPull || rest.LastSeq != records || rest.More {
		t.Fatalf("second pull: %d records, last_seq %d, more %v; want %d, %d, false",
			len(rest.Records), rest.LastSeq, rest.More, records-maxWALPull, records)
	}
}
