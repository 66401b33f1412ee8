package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"kbtable"
)

// fig1Engine builds an engine over the paper's Figure 1 knowledge base.
func fig1Engine(t *testing.T) *kbtable.Engine {
	t.Helper()
	eng, err := kbtable.NewEngine(fig1Graph(t), kbtable.EngineOptions{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// fig1Graph builds the paper's Figure 1 knowledge base.
func fig1Graph(t *testing.T) *kbtable.Graph {
	t.Helper()
	b := kbtable.NewBuilder()
	sqlServer := b.Entity("Software", "SQL Server")
	relDB := b.Entity("Model", "Relational database")
	microsoft := b.Entity("Company", "Microsoft")
	gates := b.Entity("Person", "Bill Gates")
	oracleDB := b.Entity("Software", "Oracle DB")
	orDB := b.Entity("Model", "O-R database")
	oracle := b.Entity("Company", "Oracle Corp")
	book := b.Entity("Book", "Handbook of Database Software")
	springer := b.Entity("Company", "Springer")
	b.Attr(sqlServer, "Genre", relDB)
	b.Attr(sqlServer, "Developer", microsoft)
	b.Attr(sqlServer, "Reference", book)
	b.TextAttr(microsoft, "Revenue", "US$ 77 billion")
	b.Attr(microsoft, "Founder", gates)
	b.Attr(oracleDB, "Genre", orDB)
	b.Attr(oracleDB, "Developer", oracle)
	b.TextAttr(oracle, "Revenue", "US$ 37 billion")
	b.Attr(book, "Publisher", springer)
	b.TextAttr(springer, "Revenue", "US$ 1 billion")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Engine: fig1Engine(t), D: 3})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSearch(t *testing.T, url string, req SearchRequest) (*http.Response, *SearchResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return resp, &sr
}

func TestSearchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for _, algo := range []string{"patternenum", "linearenum"} {
		resp, sr := postSearch(t, ts.URL, SearchRequest{Query: "database software company revenue", K: 3, Algorithm: algo})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", algo, resp.StatusCode)
		}
		if len(sr.Answers) == 0 {
			t.Fatalf("%s: no answers for the running example query", algo)
		}
		a := sr.Answers[0]
		if a.Rank != 1 || a.Score == 0 || len(a.Columns) == 0 || len(a.Rows) == 0 {
			t.Errorf("%s: malformed top answer %+v", algo, a)
		}
		if sr.Cached {
			t.Errorf("%s: first run must not be cached", algo)
		}
	}
}

func TestSearchCacheHit(t *testing.T) {
	srv, ts := newTestServer(t)
	req := SearchRequest{Query: "Database  SOFTWARE company revenue", K: 2}
	_, first := postSearch(t, ts.URL, req)
	if first.Cached {
		t.Fatal("first response claims cached")
	}
	// Same keyword set modulo case/whitespace must hit the cache.
	req.Query = "database software company revenue"
	_, second := postSearch(t, ts.URL, req)
	if !second.Cached {
		t.Fatal("identical normalized query missed the cache")
	}
	// A hit is the computing response byte for byte, but for the flag.
	second.Cached = false
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("cache hit diverges from the miss it hit:\nhit:  %+v\nmiss: %+v", second, first)
	}
	if st := srv.cache.Stats(); st.Hits == 0 {
		t.Fatalf("cache stats recorded no hit: %+v", st)
	}
	// Different k is a different result; must miss.
	req.K = 3
	_, third := postSearch(t, ts.URL, req)
	if third.Cached {
		t.Fatal("different k must not share a cache entry")
	}
}

func TestSearchValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		req  SearchRequest
		want int
	}{
		{"empty query", SearchRequest{}, http.StatusBadRequest},
		{"bad algorithm", SearchRequest{Query: "software", Algorithm: "dijkstra"}, http.StatusBadRequest},
		{"baseline is not served", SearchRequest{Query: "software", Algorithm: "baseline"}, http.StatusBadRequest},
		{"wrong d", SearchRequest{Query: "software", D: 5}, http.StatusBadRequest},
		{"k too large", SearchRequest{Query: "software", K: 100000}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := postSearch(t, ts.URL, c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// GET on /search is not allowed.
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/search: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}

// slowEngine is a real engine whose searches block until their context
// expires, standing in for an explosive query that must be cut off by the
// per-request timeout.
type slowEngine struct{ *kbtable.Engine }

func (slowEngine) SearchPlan(ctx context.Context, query string, opts kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error) {
	<-ctx.Done()
	return nil, kbtable.PlanInfo{}, ctx.Err()
}

func TestSearchTimeout(t *testing.T) {
	srv := New(Config{Engine: slowEngine{fig1Engine(t)}, D: 3, Timeout: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(SearchRequest{Query: "software"})
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestConcurrentStress mixes direct Engine.Search calls with HTTP traffic
// through the handler and LRU cache from many goroutines — the check the
// daemon's concurrency claims rest on. Run with -race.
func TestConcurrentStress(t *testing.T) {
	eng := fig1Engine(t)
	srv := New(Config{Engine: eng, D: 3, CacheSize: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{
		"database software company revenue",
		"database software",
		"company revenue",
		"software company",
		"microsoft founder",
	}
	algos := []string{"patternenum", "linearenum", "auto"}
	want := map[string]int{}
	for _, q := range queries {
		answers, err := eng.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = len(answers)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(w+i)%len(queries)]
				switch i % 3 {
				case 0: // direct engine call, parallel execution
					answers, err := eng.Search(q, 5)
					if err != nil {
						errs <- err
						continue
					}
					if len(answers) != want[q] {
						errs <- fmt.Errorf("engine diverged on %q: %d != %d", q, len(answers), want[q])
					}
				case 1: // engine call with context and explicit algorithm; the
					// baseline is library-only, and its index is built by
					// whichever call comes first
					answers, err := eng.SearchContext(context.Background(), q, kbtable.SearchOptions{
						K: 5, Algorithm: []kbtable.Algorithm{kbtable.LinearEnum, kbtable.Baseline}[w%2],
					})
					if err != nil {
						errs <- err
						continue
					}
					if len(answers) != want[q] {
						errs <- fmt.Errorf("engine diverged on %q: %d != %d", q, len(answers), want[q])
					}
				default: // full HTTP round trip, exercising the cache
					body, _ := json.Marshal(SearchRequest{Query: q, K: 5, Algorithm: algos[(w+i)%len(algos)]})
					resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						continue
					}
					var sr SearchResponse
					err = json.NewDecoder(resp.Body).Decode(&sr)
					resp.Body.Close()
					if err != nil {
						errs <- err
						continue
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("HTTP %d for %q", resp.StatusCode, q)
						continue
					}
					if sr.Algorithm == "patternenum" && len(sr.Answers) != want[q] {
						errs <- fmt.Errorf("HTTP diverged on %q: %d != %d", q, len(sr.Answers), want[q])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.cache.Stats()
	if st.Hits == 0 {
		t.Error("stress run never hit the cache; repeated identical queries should")
	}
}

// TestGracefulShutdown starts a real listener, issues a request, then
// shuts down and verifies the listener refuses further traffic.
func TestGracefulShutdown(t *testing.T) {
	srv := New(Config{Engine: fig1Engine(t), D: 3})
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe("127.0.0.1:0") }()
	// The ephemeral port is not exposed; drive the handler directly and
	// then check Shutdown unblocks ListenAndServe cleanly.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("ListenAndServe returned %v after graceful shutdown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ListenAndServe did not return after Shutdown")
	}
}
