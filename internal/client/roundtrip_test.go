package client_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
	"kbtable/internal/serve"
)

// demoServer starts a serve.Server over the small Figure 1 knowledge
// base behind httptest and returns a typed client for it.
func demoServer(t *testing.T, mutate func(*serve.Config)) (*client.Client, *httptest.Server) {
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
	eng, err := kbtable.NewEngine(g, kbtable.EngineOptions{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Engine: eng, D: 3, CacheSize: -1}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), ts
}

func wantCode(t *testing.T, err error, status int, code string) {
	t.Helper()
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("want *client.APIError %d/%s, got %T: %v", status, code, err, err)
	}
	if apiErr.Status != status || apiErr.Code != code {
		t.Fatalf("want %d/%s, got %d/%s (%s)", status, code, apiErr.Status, apiErr.Code, apiErr.Message)
	}
}

// TestRoundTripHappyPaths drives every client method against a live
// server: search, update, health, shards, and metrics.
func TestRoundTripHappyPaths(t *testing.T) {
	cl, _ := demoServer(t, nil)
	ctx := context.Background()

	sr, err := cl.Search(ctx, &api.SearchRequest{Query: "software company revenue", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Answers) == 0 || sr.Algorithm == "" || sr.Epoch != 0 {
		t.Fatalf("search response: %+v", sr)
	}
	if len(sr.Answers[0].FullColumns) == 0 {
		t.Fatal("search answers missing full_columns")
	}

	var u kbtable.Update
	e := u.AddEntity("Company", "Initrode")
	u.AddTextAttr(e, "Revenue", "US$ 2 billion")
	ur, err := cl.Update(ctx, &api.UpdateRequest{Ops: u.Ops})
	if err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != 1 || len(ur.NewEntities) != 1 {
		t.Fatalf("update response: %+v", ur)
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 1 || !h.Updatable {
		t.Fatalf("health: %+v", h)
	}

	sh, err := cl.Shards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Role != "standalone" || !sh.Complete || sh.Epoch != 1 {
		t.Fatalf("shards: %+v", sh)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "kbserve_requests_total") {
		t.Fatalf("metrics output unrecognized:\n%s", m)
	}
}

// TestRoundTripErrorCodes exercises every structured error the server
// emits through the typed client and raw HTTP where the client cannot
// construct the malformed request itself.
func TestRoundTripErrorCodes(t *testing.T) {
	cl, ts := demoServer(t, nil)
	ctx := context.Background()

	// 400 bad_request: empty query.
	_, err := cl.Search(ctx, &api.SearchRequest{Query: ""})
	wantCode(t, err, http.StatusBadRequest, api.CodeBadRequest)

	// 400 bad_request: unknown algorithm.
	_, err = cl.Search(ctx, &api.SearchRequest{Query: "software", Algorithm: "bogus"})
	wantCode(t, err, http.StatusBadRequest, api.CodeBadRequest)

	// 400 bad_request: baseline, which the wire does not serve.
	_, err = cl.Search(ctx, &api.SearchRequest{Query: "software", Algorithm: "baseline"})
	wantCode(t, err, http.StatusBadRequest, api.CodeBadRequest)

	// 400 bad_request: update with no ops.
	_, err = cl.Update(ctx, &api.UpdateRequest{})
	wantCode(t, err, http.StatusBadRequest, api.CodeBadRequest)

	// 404 not_found envelope on unknown paths, versioned or not, and on
	// the removed prepared-query route.
	for _, path := range []string{"/v1/nope", "/nope", "/v1/prepare"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), api.CodeNotFound) {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
	}

	// 405 method_not_allowed: GET on a POST endpoint, POST on a GET one.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/search"},
		{http.MethodGet, "/v1/update"},
		{http.MethodPost, "/v1/shards"},
		{http.MethodPost, "/v1/wal/segments"},
		{http.MethodDelete, "/v1/healthz"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(string(body), api.CodeMethodNotAllowed) {
			t.Fatalf("%s %s: %d %s", probe.method, probe.path, resp.StatusCode, body)
		}
	}

	// 415 bad_request: POST with a non-JSON Content-Type.
	resp, err := http.Post(ts.URL+"/v1/search", "text/plain", strings.NewReader(`{"query":"software"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType || !strings.Contains(string(body), api.CodeBadRequest) {
		t.Fatalf("non-JSON POST: %d %s", resp.StatusCode, body)
	}

	// 400 bad_request: a malformed JSON body, and a body that carries
	// only the removed prepared_id (an unknown field, so an empty query).
	for _, raw := range []string{`{"query":`, `{"prepared_id":"p0-1"}`} {
		resp, err = http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), api.CodeBadRequest) {
			t.Fatalf("POST %s: %d %s", raw, resp.StatusCode, body)
		}
	}

	// 501 not_implemented: WAL endpoint without a store.
	_, err = cl.WALSegments(ctx, 0, 0)
	wantCode(t, err, http.StatusNotImplemented, api.CodeNotImplemented)

	// 501 read_only: update against a read-only server.
	roCl, _ := demoServer(t, func(c *serve.Config) { c.ReadOnly = true })
	var u kbtable.Update
	u.AddEntity("Company", "Nope Inc")
	_, err = roCl.Update(ctx, &api.UpdateRequest{Ops: u.Ops})
	wantCode(t, err, http.StatusNotImplemented, api.CodeReadOnly)
}

// TestWALSegmentsRoundTrip reads shipped WAL records back through the
// client from a durable server, including the empty tail and the
// wal_gap signal after a checkpoint truncates history.
func TestWALSegmentsRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	var store *kbtable.Store
	cl, _ := demoServer(t, func(c *serve.Config) {
		st, err := kbtable.OpenStoreOpts(dir, kbtable.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Engine.(*kbtable.Engine).Checkpoint(st); err != nil {
			t.Fatal(err)
		}
		c.Store = st
		c.CheckpointEvery = -1
		store = st
	})
	t.Cleanup(func() { store.Close() })

	for i := 0; i < 3; i++ {
		var u kbtable.Update
		u.AddEntity("Company", "WAL Co "+string(rune('A'+i)))
		if _, err := cl.Update(ctx, &api.UpdateRequest{Ops: u.Ops}); err != nil {
			t.Fatal(err)
		}
	}

	ws, err := cl.WALSegments(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Records) != 3 || ws.LastSeq != 3 || ws.More {
		t.Fatalf("wal segments: %+v", ws)
	}
	for i, rec := range ws.Records {
		if rec.Seq != uint64(i+1) || len(rec.Ops) == 0 {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}

	// Paged read: one record at a time, More set until the tail.
	ws, err = cl.WALSegments(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Records) != 1 || ws.LastSeq != 1 || !ws.More {
		t.Fatalf("paged wal segments: %+v", ws)
	}

	// Empty tail.
	ws, err = cl.WALSegments(ctx, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Records) != 0 || ws.More {
		t.Fatalf("tail read: %+v", ws)
	}

	// A checkpoint truncates history: on a server checkpointing every
	// update, cursors before the snapshot now 410 wal_gap.
	gapDir := t.TempDir()
	var gapStore *kbtable.Store
	gapCl, _ := demoServer(t, func(c *serve.Config) {
		st, err := kbtable.OpenStoreOpts(gapDir, kbtable.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Engine.(*kbtable.Engine).Checkpoint(st); err != nil {
			t.Fatal(err)
		}
		c.Store = st
		c.CheckpointEvery = 1
		gapStore = st
	})
	t.Cleanup(func() { gapStore.Close() })
	var u kbtable.Update
	u.AddEntity("Company", "Gap Co")
	if _, err := gapCl.Update(ctx, &api.UpdateRequest{Ops: u.Ops}); err != nil {
		t.Fatal(err)
	}
	var gapErr error
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, gapErr = gapCl.WALSegments(ctx, 0, 0)
		if gapErr != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond) // checkpointing is asynchronous
	}
	wantCode(t, gapErr, http.StatusGone, api.CodeWALGap)
}

// TestClientShedRetry pins the shed contract: the client makes one
// attempt and surfaces a shed typed, with the server's Retry-After
// parsed, for the caller to back off on.
func TestClientShedRetry(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"shed","message":"overloaded","retry_after_ms":1}}`))
	}))
	t.Cleanup(ts.Close)

	_, err := client.New(ts.URL).Search(context.Background(), &api.SearchRequest{Query: "q"})
	if !client.IsShed(err) {
		t.Fatalf("want shed, got %v", err)
	}
	apiErr := err.(*client.APIError)
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("shed carried no retry hint: %+v", apiErr)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}
