package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"kbtable"
	"kbtable/internal/api"
)

// postPrepare POSTs /prepare and decodes the reply (nil on non-200).
func postPrepare(t *testing.T, url string, req PrepareRequest) (*http.Response, *PrepareResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/prepare", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var pr PrepareResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return resp, &pr
}

// TestCacheKeyInjective pins the non-forgeable key encoding: under the
// old plain "|" join, a query containing the separator re-parsed as a
// different (query, algo) split — cacheKey("a|b","c",...) and
// cacheKey("a","b|c",...) were the SAME string — so two different
// request shapes shared one result entry. The length-prefixed encoding
// keeps every field boundary explicit.
func TestCacheKeyInjective(t *testing.T) {
	pairs := [][2]string{
		{cacheKey("a|b", "c", 1, 2, 3), cacheKey("a", "b|c", 1, 2, 3)},
		{cacheKey("x|patternenum", "patternenum", 10, 3, 50), cacheKey("x", "patternenum|patternenum", 10, 3, 50)},
		{cacheKey("q", "patternenum", 10, 3, 50), cacheKey("q", "patternenum", 1, 3, 50)},
		{cacheKey("", "patternenum", 1, 1, 1), cacheKey("patternenum", "", 1, 1, 1)},
	}
	for i, p := range pairs {
		if p[0] == p[1] {
			t.Errorf("pair %d: distinct inputs encode to the same key %q", i, p[0])
		}
	}
	// Identical inputs still share an entry.
	if cacheKey("software", "patternenum", 5, 3, 50) != cacheKey("software", "patternenum", 5, 3, 50) {
		t.Error("identical inputs must encode identically")
	}
}

// TestCacheKeyNoForgery is the behavioral half: the adversarial query
// from the key-forgery report and the innocent request it aimed to
// impersonate must never serve each other's bytes.
func TestCacheKeyNoForgery(t *testing.T) {
	_, ts := newTestServer(t)
	_, adv := postSearch(t, ts.URL, SearchRequest{Query: "x|patternenum"})
	if adv == nil {
		t.Fatal("adversarial query rejected")
	}
	resp, innocent := postSearch(t, ts.URL, SearchRequest{Query: "x", Algorithm: "patternenum"})
	if innocent == nil {
		t.Fatalf("innocent query rejected: %v", resp.Status)
	}
	if innocent.Cached {
		t.Fatalf("innocent request served from the adversarial query's cache entry: %+v", innocent)
	}
	if innocent.Query == adv.Query {
		t.Fatalf("both requests normalized onto one query %q", adv.Query)
	}
}

// TestPunctuationSharesCacheEntry pins the tokenized normalization fix:
// the engine drops punctuation during keyword resolution, so "foo," and
// "foo" produce byte-identical answers and must occupy ONE cache entry
// instead of fragmenting the result cache.
func TestPunctuationSharesCacheEntry(t *testing.T) {
	srv, ts := newTestServer(t)
	_, first := postSearch(t, ts.URL, SearchRequest{Query: "database, software; company (revenue)!"})
	if first == nil || first.Cached {
		t.Fatalf("first spelling: %+v", first)
	}
	if first.Query != "database software company revenue" {
		t.Fatalf("normalized query = %q, want the engine's token form", first.Query)
	}
	_, second := postSearch(t, ts.URL, SearchRequest{Query: "database software company revenue"})
	if second == nil || !second.Cached {
		t.Fatalf("punctuation-free spelling missed the shared entry: %+v", second)
	}
	if len(second.Answers) != len(first.Answers) {
		t.Fatalf("answers differ across spellings: %d vs %d", len(second.Answers), len(first.Answers))
	}
	if st := srv.cache.Stats(); st.Hits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}
}

// TestPrepareAndExecute drives the full prepared-query flow: prepare,
// execute by handle — after an identical fresh search, a byte-identical
// hit on its cache entry — and the request-shape validation around
// prepared_id.
func TestPrepareAndExecute(t *testing.T) {
	const query = "database software company revenue"
	srv, ts := newTestServer(t)

	resp, pr := postPrepare(t, ts.URL, PrepareRequest{Query: query, K: 3, Algorithm: "auto"})
	if pr == nil {
		t.Fatalf("prepare failed: %v", resp.Status)
	}
	if pr.ID == "" || pr.Epoch != 0 || pr.Plan == nil || pr.Algorithm != "auto" {
		t.Fatalf("prepare response: %+v", pr)
	}

	_, fresh := postSearch(t, ts.URL, SearchRequest{Query: query, K: 3, Algorithm: "auto"})
	if fresh == nil || len(fresh.Answers) == 0 {
		t.Fatalf("fresh search: %+v", fresh)
	}

	for i := 0; i < 3; i++ {
		_, prep := postSearch(t, ts.URL, SearchRequest{PreparedID: pr.ID})
		if prep == nil {
			t.Fatalf("prepared execution %d failed", i)
		}
		if prep.PreparedID != pr.ID || !prep.Cached || prep.Epoch != 0 {
			t.Fatalf("prepared response %d: %+v", i, prep)
		}
		prep.PreparedID, prep.Cached = "", false
		if !reflect.DeepEqual(prep, fresh) {
			t.Fatalf("prepared response diverges from the fresh search it hit:\nprepared: %+v\nfresh:    %+v", prep, fresh)
		}
	}
	// A prepared execution that misses computes the cache entry, and
	// echoes its handle id on a copy: the entry itself carries none.
	_, pr2 := postPrepare(t, ts.URL, PrepareRequest{Query: query, K: 2})
	_, lead := postSearch(t, ts.URL, SearchRequest{PreparedID: pr2.ID})
	if lead == nil || lead.Cached || lead.PreparedID != pr2.ID {
		t.Fatalf("first execution of %s: %+v", pr2.ID, lead)
	}
	if ent, ok := srv.cache.Get(cacheKey(lead.Query, lead.Algorithm, lead.K, lead.D, srv.cfg.MaxRows), lead.Epoch); !ok {
		t.Fatalf("%s computed no cache entry", pr2.ID)
	} else if ent.resp.PreparedID != "" {
		t.Fatalf("the cache entry %s computed carries prepared_id %q", pr2.ID, ent.resp.PreparedID)
	}
	if _, hit := postSearch(t, ts.URL, SearchRequest{Query: query, K: 2}); hit == nil || !hit.Cached || hit.PreparedID != "" {
		t.Fatalf("fresh search after a prepared execution: %+v", hit)
	}

	// prepared_id fixes the shape: combining it with a query is an error.
	respBad, _ := postSearch(t, ts.URL, SearchRequest{PreparedID: pr.ID, Query: "software"})
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("prepared_id+query: status %d, want 400", respBad.StatusCode)
	}
	// Unknown handles are Gone, not an internal error.
	respGone, _ := postSearch(t, ts.URL, SearchRequest{PreparedID: "p0-999"})
	if respGone.StatusCode != http.StatusGone {
		t.Fatalf("unknown prepared_id: status %d, want 410", respGone.StatusCode)
	}
	// The baseline is not a wire algorithm, so it cannot be prepared.
	respBase, _ := postPrepare(t, ts.URL, PrepareRequest{Query: query, Algorithm: "baseline"})
	if respBase.StatusCode != http.StatusBadRequest {
		t.Fatalf("baseline prepare: status %d, want 400", respBase.StatusCode)
	}
}

// TestPreparedExpiresOnUpdate pins handle invalidation: an epoch swap
// expires every outstanding handle (410 Gone), and re-preparing binds to
// the new epoch and sees the update.
func TestPreparedExpiresOnUpdate(t *testing.T) {
	_, ts := newTestServer(t)
	_, pr := postPrepare(t, ts.URL, PrepareRequest{Query: "postgres database", Algorithm: "patternenum"})
	if pr == nil {
		t.Fatal("prepare failed")
	}
	if _, got := postSearch(t, ts.URL, SearchRequest{PreparedID: pr.ID}); got == nil || len(got.Answers) != 0 {
		t.Fatalf("pre-update prepared execution: %+v", got)
	}

	var u kbtable.Update
	pg := u.AddEntity("Software", "Postgres")
	u.AddAttr(pg, "Genre", 1)
	if resp, ur := postUpdate(t, ts.URL, UpdateRequest{Ops: u.Ops}); ur == nil {
		t.Fatalf("update failed: %v", resp.Status)
	}

	resp, _ := postSearch(t, ts.URL, SearchRequest{PreparedID: pr.ID})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("expired handle: status %d, want 410", resp.StatusCode)
	}

	_, pr2 := postPrepare(t, ts.URL, PrepareRequest{Query: "postgres database", Algorithm: "patternenum"})
	if pr2 == nil || pr2.Epoch != 1 {
		t.Fatalf("re-prepare: %+v", pr2)
	}
	_, got := postSearch(t, ts.URL, SearchRequest{PreparedID: pr2.ID})
	if got == nil || len(got.Answers) == 0 || got.Epoch != 1 {
		t.Fatalf("post-update prepared execution must see the new entity: %+v", got)
	}

	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	p := h.Planner.Prepared
	if p.Expired != 1 || p.Live != 1 || p.Prepares != 2 || p.Searches != 2 {
		t.Fatalf("prepared health: %+v", p)
	}
	if h.Planner.PlanCache == nil {
		t.Fatal("healthz omits the plan cache on a real engine")
	}
}

// TestPreparedRegistryBounded: prepares past the registry's capacity on
// one epoch evict the least recently used handle instead of growing the
// registry. Live stays at the bound, the oldest id answers 410
// prepared_gone, and the newest still executes.
func TestPreparedRegistryBounded(t *testing.T) {
	h := New(Config{Engine: fig1Engine(t), D: 3}).Handler()
	var first, last PrepareResponse
	for i := 0; i <= maxPrepared; i++ {
		if w := postJSON(t, h, "/v1/prepare", PrepareRequest{Query: "database software", K: 3}, &last); w.Code != http.StatusOK {
			t.Fatalf("prepare %d: status %d", i, w.Code)
		}
		if i == 0 {
			first = last
		}
	}
	if p := getHealth(t, h).Planner.Prepared; p.Live > maxPrepared || p.Prepares != maxPrepared+1 || p.Expired != 0 {
		t.Fatalf("prepared health after %d prepares: %+v (capacity %d)", maxPrepared+1, p, maxPrepared)
	}
	w := postJSON(t, h, "/v1/search", SearchRequest{PreparedID: first.ID}, nil)
	var gone api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &gone); err != nil || w.Code != http.StatusGone || gone.Error.Code != api.CodePreparedGone {
		t.Fatalf("oldest handle %s: status %d, body %s", first.ID, w.Code, w.Body.String())
	}
	var sr SearchResponse
	if w := postJSON(t, h, "/v1/search", SearchRequest{PreparedID: last.ID}, &sr); w.Code != http.StatusOK || sr.PreparedID != last.ID || len(sr.Answers) == 0 {
		t.Fatalf("newest handle %s: status %d, response %+v", last.ID, w.Code, sr)
	}
}

// TestPreparedConcurrentWithUpdates hammers prepared handles from many
// goroutines while updates swap epochs underneath — the -race guard for
// the registry and for shared Prepared executions. Every outcome must be
// a clean 200, 409 (prepare lost the race to a swap) or 410 (handle
// expired); anything else is a correctness failure.
func TestPreparedConcurrentWithUpdates(t *testing.T) {
	srv := New(Config{Engine: fig1Engine(t), D: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	stop := make(chan struct{})

	// Updaters: each swap expires all handles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			var u kbtable.Update
			e := u.AddEntity("Software", fmt.Sprintf("DB-%d", i))
			u.AddAttr(e, "Genre", 1)
			if resp, ur := postUpdate(t, ts.URL, UpdateRequest{Ops: u.Ops}); ur == nil {
				errs <- fmt.Errorf("update %d: %v", i, resp.Status)
			}
		}
		close(stop)
	}()

	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var id string
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if id == "" || i%4 == 0 {
					body, _ := json.Marshal(PrepareRequest{Query: "database software", K: 3, Algorithm: "auto"})
					resp, err := http.Post(ts.URL+"/v1/prepare", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode == http.StatusOK {
						var pr PrepareResponse
						if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
							errs <- err
						} else {
							id = pr.ID
						}
					} else if resp.StatusCode != http.StatusConflict {
						errs <- fmt.Errorf("prepare: unexpected status %d", resp.StatusCode)
					}
					resp.Body.Close()
					continue
				}
				body, _ := json.Marshal(SearchRequest{PreparedID: id})
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var sr SearchResponse
					if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
						errs <- err
					} else if sr.PreparedID != id {
						errs <- fmt.Errorf("prepared response for %q carries id %q", id, sr.PreparedID)
					}
				case http.StatusGone:
					id = "" // expired by a swap: re-prepare
				default:
					errs <- fmt.Errorf("prepared search: unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
