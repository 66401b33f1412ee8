package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kbtable/internal/api"
)

// waitJoined waits until n requests are in one flight: the leader in the
// engine and n-1 followers waiting on it.
func waitJoined(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, "requests joining the flight", func() bool {
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*flightGroup).do(") >= n
	})
}

// TestSearchPanicReleasesFlight pins that a search that panics fails
// its flight like any other error: the leader and its follower answer
// 500 internal at once, and the next identical request starts a fresh
// flight and answers, instead of joining a flight nobody will finish and
// waiting out the timeout for a 504.
func TestSearchPanicReleasesFlight(t *testing.T) {
	eng := newBlockingEngine(t)
	eng.panics.Store(1)
	srv := New(Config{Engine: eng, D: 3, Timeout: 3 * time.Second})
	ts := newHTTPServer(t, srv)
	req := api.SearchRequest{Query: "database software company revenue", K: 3}

	var wg sync.WaitGroup
	codes := make([]int, 2)
	bodies := make([][]byte, 2)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], bodies[i] = rawSearch(t, ts.URL, req)
		}()
	}
	waitJoined(t, 2)
	close(eng.release)
	wg.Wait()
	for i, code := range codes {
		var env struct{ Error struct{ Code string } }
		_ = json.Unmarshal(bodies[i], &env)
		if code != http.StatusInternalServerError || env.Error.Code != "internal" {
			t.Errorf("request %d during the panic: status %d %s, want 500 internal", i, code, bodies[i])
		}
	}

	t0 := time.Now()
	code, body := rawSearch(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("request after the panic: status %d %s, want 200", code, body)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("request after the panic took %v", d)
	}
	if n := eng.executions.Load(); n != 2 {
		t.Errorf("%d executions, want 2 (the panicking one and a fresh one)", n)
	}
}

// perRequest matches the reply fields that may differ between requests
// answered from one computed result.
var perRequest = regexp.MustCompile(`"cached":(true|false)|"coalesced":true,|"elapsed_ms":[^,]*|"plan":\{[^}]*\},`)

// TestHitMissCoalescedBodiesAgree pins that a miss, a coalesced follower
// and a cache hit of one auto request write the same bytes but for
// cached, coalesced, elapsed_ms and plan; that an explicit request for
// the algorithm auto resolved to is a miss of its own, answering the same
// bytes (the Auto-equivalence property, through HTTP); and that an auto
// cache hit does no engine work, planner included. Auto and explicit
// requests no longer share an entry, so there is no cross-spelling hit to
// check.
func TestHitMissCoalescedBodiesAgree(t *testing.T) {
	eng := newBlockingEngine(t)
	srv := New(Config{Engine: eng, D: 3})
	ts := newHTTPServer(t, srv)
	auto := api.SearchRequest{Query: "database software company revenue", Algorithm: "auto"}

	var wg sync.WaitGroup
	var miss, follower []byte
	wg.Add(2)
	go func() { defer wg.Done(); _, miss = rawSearch(t, ts.URL, auto) }()
	waitFor(t, "the leader in the engine", func() bool { return eng.executions.Load() == 1 })
	go func() { defer wg.Done(); _, follower = rawSearch(t, ts.URL, auto) }()
	waitJoined(t, 2)
	close(eng.release)
	wg.Wait()
	execs := eng.executions.Load()
	_, hit := rawSearch(t, ts.URL, auto)
	if after := eng.executions.Load(); after != execs {
		t.Errorf("%d executions across an auto cache hit, want %d: a hit does no engine work", after, execs)
	}

	decode := func(name string, body []byte) api.SearchResponse {
		var r api.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s: %v: %s", name, err, body)
		}
		return r
	}
	m, f, h := decode("miss", miss), decode("follower", follower), decode("hit", hit)
	if m.Cached || m.Coalesced || f.Cached || !f.Coalesced || !h.Cached {
		t.Fatalf("flags: miss %v/%v, follower %v/%v, hit %v; want one miss, one coalesced, one hit",
			m.Cached, m.Coalesced, f.Cached, f.Coalesced, h.Cached)
	}
	if n := eng.executions.Load(); n != 1 {
		t.Fatalf("%d executions, want 1", n)
	}
	want := perRequest.ReplaceAll(miss, nil)
	for name, body := range map[string][]byte{"follower": follower, "hit": hit} {
		if got := perRequest.ReplaceAll(body, nil); !bytes.Equal(got, want) {
			t.Errorf("%s body differs from the miss:\n got: %s\nwant: %s", name, got, want)
		}
	}
	if m.Plan == nil || !m.Plan.Auto || m.Plan.Reason == "" || m.Plan.Algorithm != m.Algorithm || m.Algorithm == "auto" {
		t.Errorf("auto miss: algorithm %q, plan %+v; want the resolved algorithm with the planner's decision", m.Algorithm, m.Plan)
	}
	if *f.Plan != *m.Plan || *h.Plan != *m.Plan {
		t.Errorf("auto plans: miss %+v, follower %+v, hit %+v; want the entry's plan on each", m.Plan, f.Plan, h.Plan)
	}

	_, explicit := rawSearch(t, ts.URL, api.SearchRequest{Query: auto.Query, Algorithm: m.Algorithm})
	e := decode("explicit", explicit)
	if e.Cached || eng.executions.Load() != 2 {
		t.Fatalf("explicit %s after auto: cached %v, %d executions; want its own miss", m.Algorithm, e.Cached, eng.executions.Load())
	}
	if e.Plan == nil || e.Plan.Auto || e.Plan.Reason != "" {
		t.Errorf("explicit plan %+v, want no planner decision", e.Plan)
	}
	if got := perRequest.ReplaceAll(explicit, nil); !bytes.Equal(got, want) {
		t.Errorf("explicit %s answers differ from auto's:\n got: %s\nwant: %s", m.Algorithm, got, want)
	}
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
