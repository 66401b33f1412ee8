package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"kbtable"
)

// fig1UniformEngine is fig1Engine with uniform PageRank, so update score
// effects stay local to the touched posting lists.
func fig1UniformEngine(t *testing.T) *kbtable.Engine {
	t.Helper()
	eng := fig1Engine(t)
	g := eng.Graph()
	uni, err := kbtable.NewEngine(g, kbtable.EngineOptions{D: 3, UniformPageRank: true})
	if err != nil {
		t.Fatal(err)
	}
	return uni
}

func postUpdate(t *testing.T, url string, req UpdateRequest) (*http.Response, *UpdateResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var ur UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	return resp, &ur
}

func TestUpdateEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)

	// Before the update, "postgres" is unknown.
	_, sr := postSearch(t, ts.URL, SearchRequest{Query: "postgres database"})
	if len(sr.Answers) != 0 || sr.Epoch != 0 {
		t.Fatalf("pre-update: %+v", sr)
	}

	var u kbtable.Update
	pg := u.AddEntity("Software", "Postgres")
	u.AddAttr(pg, "Genre", 1) // Relational database
	resp, ur := postUpdate(t, ts.URL, UpdateRequest{Ops: u.Ops})
	if ur == nil {
		t.Fatalf("update failed: %v", resp.Status)
	}
	if ur.Epoch != 1 || len(ur.NewEntities) != 1 || ur.EntriesAdded == 0 {
		t.Fatalf("update response: %+v", ur)
	}
	if srv.Epoch() != 1 {
		t.Fatalf("published epoch = %d", srv.Epoch())
	}

	// The new entity answers; the response carries the new epoch.
	_, sr = postSearch(t, ts.URL, SearchRequest{Query: "postgres database"})
	if len(sr.Answers) == 0 || sr.Epoch != 1 {
		t.Fatalf("post-update: %+v", sr)
	}

	// Health reflects the swap.
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Epoch != 1 || h.Updates != 1 || !h.Updatable {
		t.Fatalf("health: %+v", h)
	}
}

func TestUpdateEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for name, req := range map[string]UpdateRequest{
		"empty":       {},
		"unknown op":  {Ops: []kbtable.UpdateOp{{Op: "zap"}}},
		"dangling":    {Ops: []kbtable.UpdateOp{{Op: "remove_entity", Node: kbtable.Ref(4096)}}},
		"missing ref": {Ops: []kbtable.UpdateOp{{Op: "remove_entity"}}},
	} {
		resp, _ := postUpdate(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/update: status %d", resp.StatusCode)
	}
	// A failed update must not advance the epoch.
	_, sr := postSearch(t, ts.URL, SearchRequest{Query: "database"})
	if sr.Epoch != 0 {
		t.Fatalf("epoch advanced to %d after failed updates", sr.Epoch)
	}
}

func TestUpdateReadOnly(t *testing.T) {
	srv := New(Config{Engine: fig1Engine(t), D: 3, ReadOnly: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var u kbtable.Update
	u.AddEntity("Software", "Postgres")
	resp, _ := postUpdate(t, ts.URL, UpdateRequest{Ops: u.Ops})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("read-only server accepted update: %d", resp.StatusCode)
	}
}

// TestUpdateInvalidatesOnlyAffectedCacheEntries: after an update, cached
// queries whose words the update touched are recomputed on the new epoch,
// while unrelated cached queries keep serving (with their original epoch).
// Uniform-PR scoring keeps answer scores local to the touched postings,
// which is what makes word-precise retention sound.
func TestUpdateInvalidatesOnlyAffectedCacheEntries(t *testing.T) {
	srv := New(Config{Engine: fig1UniformEngine(t), D: 3})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Warm the cache with two disjoint queries.
	_, sr1 := postSearch(t, ts.URL, SearchRequest{Query: "founder person"})
	_, sr2 := postSearch(t, ts.URL, SearchRequest{Query: "publisher book"})
	if sr1.Cached || sr2.Cached {
		t.Fatal("first hits must not be cached")
	}

	// Update touches "founder" (adds a founder edge) but nothing near
	// "publisher".
	var u kbtable.Update
	ell := u.AddEntity("Person", "Larry Ellison")
	u.AddAttr(6 /* Oracle Corp */, "Founder", ell)
	_, ur := postUpdate(t, ts.URL, UpdateRequest{Ops: u.Ops})
	if ur == nil {
		t.Fatal("update failed")
	}
	if ur.InvalidatedCache != 1 {
		t.Fatalf("invalidated %d cache entries, want exactly 1", ur.InvalidatedCache)
	}

	// The unrelated query still serves from cache (epoch 0 result is
	// provably unchanged); the touched query was recomputed on epoch 1.
	_, sr2b := postSearch(t, ts.URL, SearchRequest{Query: "publisher book"})
	if !sr2b.Cached || sr2b.Epoch != 0 {
		t.Fatalf("unrelated query: cached=%v epoch=%d", sr2b.Cached, sr2b.Epoch)
	}
	_, sr1b := postSearch(t, ts.URL, SearchRequest{Query: "founder person"})
	if sr1b.Cached || sr1b.Epoch != 1 {
		t.Fatalf("touched query: cached=%v epoch=%d", sr1b.Cached, sr1b.Epoch)
	}
	if len(sr1b.Answers) == 0 {
		t.Fatal("founder query lost its answers")
	}
}

// TestUpdateFlushesCacheWhenPageRankMoves: under real PageRank scoring a
// structural update shifts scores globally, so no cached entry may
// survive — word precision would under-invalidate.
func TestUpdateFlushesCacheWhenPageRankMoves(t *testing.T) {
	_, ts := newTestServer(t) // fig1Engine scores with real PageRank

	_, sr1 := postSearch(t, ts.URL, SearchRequest{Query: "founder person"})
	_, sr2 := postSearch(t, ts.URL, SearchRequest{Query: "publisher book"})
	if sr1.Cached || sr2.Cached {
		t.Fatal("first hits must not be cached")
	}

	var u kbtable.Update
	ell := u.AddEntity("Person", "Larry Ellison")
	u.AddAttr(6 /* Oracle Corp */, "Founder", ell)
	_, ur := postUpdate(t, ts.URL, UpdateRequest{Ops: u.Ops})
	if ur == nil {
		t.Fatal("update failed")
	}
	if ur.InvalidatedCache != 2 {
		t.Fatalf("invalidated %d cache entries, want all 2 (PageRank moved)", ur.InvalidatedCache)
	}
	// Both queries recompute on the new epoch.
	for _, q := range []string{"founder person", "publisher book"} {
		_, sr := postSearch(t, ts.URL, SearchRequest{Query: q})
		if sr.Cached || sr.Epoch != 1 {
			t.Fatalf("%q: cached=%v epoch=%d after global score shift", q, sr.Cached, sr.Epoch)
		}
	}

	// A pure text edit cannot move PageRank: word precision applies again.
	// The edit happens in the Oracle corner of the graph, whose d-1
	// backward neighborhood (Oracle DB) shares no postings with
	// "publisher book".
	_, sr2b := postSearch(t, ts.URL, SearchRequest{Query: "publisher book"})
	if !sr2b.Cached {
		t.Fatal("warm-up for text-edit phase not cached")
	}
	var u2 kbtable.Update
	u2.SetText(5 /* O-R database */, "Object relational model")
	_, ur2 := postUpdate(t, ts.URL, UpdateRequest{Ops: u2.Ops})
	if ur2 == nil {
		t.Fatal("text update failed")
	}
	_, sr2c := postSearch(t, ts.URL, SearchRequest{Query: "publisher book"})
	if !sr2c.Cached || sr2c.Epoch != 1 {
		t.Fatalf("text-only update flushed an unrelated entry: cached=%v epoch=%d", sr2c.Cached, sr2c.Epoch)
	}
}
