package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// demoEngine builds a small engine over the Figure 1 knowledge base.
func demoEngine(t *testing.T, shards int) *kbtable.Engine {
	t.Helper()
	b := kbtable.NewBuilder()
	sql := b.Entity("Software", "SQL Server")
	ms := b.Entity("Company", "Microsoft")
	or := b.Entity("Company", "Oracle Corp")
	odb := b.Entity("Software", "Oracle DB")
	b.Attr(sql, "Developer", ms)
	b.Attr(odb, "Developer", or)
	b.TextAttr(ms, "Revenue", "US$ 77 billion")
	b.TextAttr(or, "Revenue", "US$ 37 billion")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kbtable.NewEngine(g, kbtable.EngineOptions{D: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// post round-trips a JSON request against a handler.
func postJSON(t *testing.T, h http.Handler, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v (%s)", path, err, w.Body.String())
		}
	}
	return w
}

func getHealth(t *testing.T, h http.Handler) HealthResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var hr HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	return hr
}

func addSoftwareOp(name string) map[string]any {
	return map[string]any{"ops": []map[string]any{
		{"op": "add_entity", "type": "Software", "text": name},
		{"op": "add_attr", "src": -1, "attr": "Developer", "dst": 1},
	}}
}

// TestServeDurableUpdateAndRecovery drives a durable server through
// updates, then "crashes" it (drops it on the floor) and recovers a
// second server from the data directory: answers must match, and the
// healthz durability block must account for the WAL.
func TestServeDurableUpdateAndRecovery(t *testing.T) {
	dir := t.TempDir()
	eng := demoEngine(t, 0)
	st, err := kbtable.OpenStoreOpts(dir, kbtable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Engine: eng, D: 3, Store: st, CheckpointEvery: 1000})
	h := srv.Handler()

	hr := getHealth(t, h)
	if hr.Durability == nil || hr.Durability.DataDir != dir {
		t.Fatalf("healthz durability block missing: %+v", hr.Durability)
	}
	if hr.Index == nil || hr.Index.Bytes <= 0 || hr.Index.Entries <= 0 ||
		hr.Index.BytesPerEntry <= 0 || hr.Index.BytesPerEntry > 1024 {
		t.Fatalf("healthz index footprint block missing or implausible: %+v", hr.Index)
	}
	if hr.Durability.WALSeq != 0 || hr.Durability.SnapshotSeq != 0 {
		t.Fatalf("fresh store healthz: %+v", hr.Durability)
	}

	const updates = 5
	for i := 0; i < updates; i++ {
		var ur UpdateResponse
		if w := postJSON(t, h, "/v1/update", addSoftwareOp(fmt.Sprintf("Postgres %d", i)), &ur); w.Code != http.StatusOK {
			t.Fatalf("update %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	hr = getHealth(t, h)
	if hr.Durability.WALSeq != updates || hr.Durability.PendingRecords != updates {
		t.Fatalf("after %d updates: %+v", updates, hr.Durability)
	}

	var live SearchResponse
	if w := postJSON(t, h, "/v1/search", map[string]any{"query": "software company revenue"}, &live); w.Code != http.StatusOK {
		t.Fatalf("search: %d %s", w.Code, w.Body.String())
	}

	// Crash: no shutdown, no final checkpoint. Recover from the dir.
	st.Close()
	rec, st2, rs, err := kbtable.OpenDirOpts(dir, kbtable.EngineOptions{}, kbtable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rs.Replayed != updates || rs.TornTail {
		t.Fatalf("recovery stats: %+v", rs)
	}
	srv2 := New(Config{Engine: rec, D: 3, Store: st2})
	var recovered SearchResponse
	if w := postJSON(t, srv2.Handler(), "/v1/search", map[string]any{"query": "software company revenue"}, &recovered); w.Code != http.StatusOK {
		t.Fatalf("recovered search: %d %s", w.Code, w.Body.String())
	}
	la, _ := json.Marshal(live.Answers)
	ra, _ := json.Marshal(recovered.Answers)
	if !bytes.Equal(la, ra) {
		t.Fatalf("recovered answers diverge:\nlive: %s\nrecovered: %s", la, ra)
	}
}

// TestServeBackgroundCheckpoint pins the WAL-lag trigger: with
// CheckpointEvery=2, the third update must eventually produce a
// snapshot that truncates the log.
func TestServeBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng := demoEngine(t, 2) // sharded: checkpoint covers per-shard files
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
		if w := postJSON(t, h, "/v1/update", addSoftwareOp(fmt.Sprintf("DB %d", i)), nil); w.Code != http.StatusOK {
			t.Fatalf("update %d: %d %s", i, w.Code, w.Body.String())
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
	eng := demoEngine(t, 0)
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
