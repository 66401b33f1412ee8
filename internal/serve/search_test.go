package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"regexp"
	"runtime"
	"testing"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// TestSearchPanicAnswersInternal pins that a search that panics fails
// like any other error: its request answers 500 internal through the
// error envelope at once, and the next identical request runs a fresh
// search and answers 200.
func TestSearchPanicAnswersInternal(t *testing.T) {
	eng := newBlockingEngine(t)
	eng.panics.Store(1)
	close(eng.release)
	srv := New(Config{Engine: eng, D: 3, Timeout: 3 * time.Second})
	ts := newHTTPServer(t, srv)
	req := api.SearchRequest{Query: "database software company revenue", K: 3}

	code, body := rawSearch(t, ts.URL, req)
	var env struct{ Error struct{ Code string } }
	_ = json.Unmarshal(body, &env)
	if code != http.StatusInternalServerError || env.Error.Code != "internal" {
		t.Errorf("the panicking search: status %d %s, want 500 internal", code, body)
	}

	t0 := time.Now()
	code, body = rawSearch(t, ts.URL, req)
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

// reportingEngine reports the error every SearchPlan returns.
type reportingEngine struct {
	*blockingEngine
	errs chan error
}

func (e reportingEngine) SearchPlan(ctx context.Context, query string, opts kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error) {
	answers, pi, err := e.blockingEngine.SearchPlan(ctx, query, opts)
	e.errs <- err
	return answers, pi, err
}

// TestSearchCanceledWithClient pins that a search runs on its request's
// context: a client that goes away cancels the engine's work at once,
// long before Config.Timeout.
func TestSearchCanceledWithClient(t *testing.T) {
	eng := reportingEngine{newBlockingEngine(t), make(chan error, 1)}
	srv := New(Config{Engine: eng, D: 3, Timeout: 10 * time.Second})
	ts := newHTTPServer(t, srv)
	t.Cleanup(func() { close(eng.release) })

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(api.SearchRequest{Query: "database software", K: 3})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "the search in the engine", func() bool { return eng.executions.Load() == 1 })
	cancel()
	select {
	case err := <-eng.errs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the engine returned %v after its client went away, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the engine still searches 1 s after its client went away")
	}
}

// perRequest matches the reply fields that may differ between requests
// answered from one computed result.
var perRequest = regexp.MustCompile(`"cached":(true|false)|"elapsed_ms":[^,]*|"plan":\{[^}]*\},`)

// TestHitMissBodiesAgree pins that a miss and a cache hit of one auto
// request write the same bytes but for cached, elapsed_ms and plan; that
// an explicit request for the algorithm auto resolved to is a miss of its
// own, answering the same bytes (the Auto-equivalence property, through
// HTTP); and that an auto cache hit does no engine work, planner
// included. Auto and explicit requests no longer share an entry, so there
// is no cross-spelling hit to check.
func TestHitMissBodiesAgree(t *testing.T) {
	eng := newBlockingEngine(t)
	close(eng.release)
	srv := New(Config{Engine: eng, D: 3})
	ts := newHTTPServer(t, srv)
	auto := api.SearchRequest{Query: "database software company revenue", Algorithm: "auto"}

	_, miss := rawSearch(t, ts.URL, auto)
	_, hit := rawSearch(t, ts.URL, auto)
	if n := eng.executions.Load(); n != 1 {
		t.Errorf("%d executions across an auto miss and its hit, want 1: a hit does no engine work", n)
	}

	decode := func(name string, body []byte) api.SearchResponse {
		var r api.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s: %v: %s", name, err, body)
		}
		return r
	}
	m, h := decode("miss", miss), decode("hit", hit)
	if m.Cached || !h.Cached {
		t.Fatalf("flags: miss cached %v, hit cached %v; want one miss, one hit", m.Cached, h.Cached)
	}
	want := perRequest.ReplaceAll(miss, nil)
	if got := perRequest.ReplaceAll(hit, nil); !bytes.Equal(got, want) {
		t.Errorf("hit body differs from the miss:\n got: %s\nwant: %s", got, want)
	}
	if m.Plan == nil || !m.Plan.Auto || m.Plan.Reason == "" || m.Plan.Algorithm != m.Algorithm || m.Algorithm == "auto" {
		t.Errorf("auto miss: algorithm %q, plan %+v; want the resolved algorithm with the planner's decision", m.Algorithm, m.Plan)
	}
	if *h.Plan != *m.Plan {
		t.Errorf("auto plans: miss %+v, hit %+v; want the entry's plan on each", m.Plan, h.Plan)
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

// TestEncodedAnswersOwnTheirBytes pins that a miss's answers, encoded
// in a pooled scratch, are copied out of it: encoding other answers
// afterwards leaves the first encoding, a cache entry's bytes, as it was.
func TestEncodedAnswersOwnTheirBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the second encode takes the first's scratch
	encode := func(cell string) []byte {
		b, err := encodeAnswers([]kbtable.Answer{{Rank: 1, Score: 1, NumRows: 1, Pattern: "p",
			Columns: []string{"c"}, FullColumns: []string{"T.c"}, Rows: [][]string{{cell}}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := encode("first")
	want := string(first)
	encode("other")
	if string(first) != want {
		t.Errorf("an encoding changed under a later one:\n got: %s\nwant: %s", first, want)
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
