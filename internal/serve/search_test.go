package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kbtable"
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

// rawSearch posts req and returns the status and the raw body (0 and
// nil when the connection failed).
func rawSearch(t *testing.T, url string, req SearchRequest) (int, []byte) {
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
	req := SearchRequest{Query: "database software company revenue", K: 3}

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
// and a cache hit on one result write the same bytes but for cached,
// coalesced, elapsed_ms and plan, and that an auto and an explicit
// request sharing the result each report their own plan, whichever of
// them computed it.
func TestHitMissCoalescedBodiesAgree(t *testing.T) {
	eng := newBlockingEngine(t)
	srv := New(Config{Engine: eng, D: 3})
	ts := newHTTPServer(t, srv)
	q := "database software company revenue"
	resolved, err := eng.Plan(context.Background(), q, kbtable.SearchOptions{K: 10, Algorithm: kbtable.Auto})
	if err != nil {
		t.Fatal(err)
	}
	explicit := SearchRequest{Query: q, Algorithm: api.AlgorithmName(resolved.Algorithm)}
	auto := SearchRequest{Query: q, Algorithm: "auto"}

	// The explicit request leads; the auto one, resolving to the same
	// algorithm, joins its flight.
	var wg sync.WaitGroup
	var miss, follower []byte
	wg.Add(2)
	go func() { defer wg.Done(); _, miss = rawSearch(t, ts.URL, explicit) }()
	waitFor(t, "the leader in the engine", func() bool { return eng.executions.Load() == 1 })
	go func() { defer wg.Done(); _, follower = rawSearch(t, ts.URL, auto) }()
	waitJoined(t, 2)
	close(eng.release)
	wg.Wait()
	_, explicitHit := rawSearch(t, ts.URL, explicit)
	_, autoHit := rawSearch(t, ts.URL, auto)

	decode := func(name string, body []byte) SearchResponse {
		var r SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s: %v: %s", name, err, body)
		}
		return r
	}
	m, f, eh, ah := decode("miss", miss), decode("follower", follower), decode("explicit hit", explicitHit), decode("auto hit", autoHit)
	if m.Cached || m.Coalesced || f.Cached || !f.Coalesced || !eh.Cached || !ah.Cached {
		t.Fatalf("flags: miss %v/%v, follower %v/%v, hits %v %v; want one miss, one coalesced, two hits",
			m.Cached, m.Coalesced, f.Cached, f.Coalesced, eh.Cached, ah.Cached)
	}
	if n := eng.executions.Load(); n != 1 {
		t.Fatalf("%d executions, want 1", n)
	}
	want := perRequest.ReplaceAll(miss, nil)
	for name, body := range map[string][]byte{"follower": follower, "explicit hit": explicitHit, "auto hit": autoHit} {
		if got := perRequest.ReplaceAll(body, nil); !bytes.Equal(got, want) {
			t.Errorf("%s body differs from the miss:\n got: %s\nwant: %s", name, got, want)
		}
	}
	if m.Plan == nil || m.Plan.Auto || m.Plan.Reason != "" || *eh.Plan != *m.Plan {
		t.Errorf("explicit plans: miss %+v, hit %+v; want the same, auto=false", m.Plan, eh.Plan)
	}
	if f.Plan == nil || !f.Plan.Auto || f.Plan.Reason == "" || *ah.Plan != *f.Plan {
		t.Errorf("auto plans: follower %+v, hit %+v; want the same, auto=true with a reason", f.Plan, ah.Plan)
	}
}
