package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// newHTTPServer wraps a configured Server in an httptest listener.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestSearchAutoOnWire: "auto" requests succeed, report the resolved
// algorithm (never "auto"), and carry a plan with the planner's rationale
// and per-stage timings.
func TestSearchAutoOnWire(t *testing.T) {
	_, ts := newTestServer(t)
	resp, sr := postSearch(t, ts.URL, SearchRequest{Query: "database software company revenue", Algorithm: "auto"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if sr.Algorithm != "patternenum" && sr.Algorithm != "linearenum" {
		t.Fatalf("auto resolved to %q on the wire", sr.Algorithm)
	}
	if sr.Plan == nil {
		t.Fatal("auto response has no plan")
	}
	if !sr.Plan.Auto || sr.Plan.Reason == "" {
		t.Errorf("plan = %+v, want auto with a reason", sr.Plan)
	}
	if sr.Plan.Algorithm != sr.Algorithm {
		t.Errorf("plan algorithm %q != response algorithm %q", sr.Plan.Algorithm, sr.Algorithm)
	}
	if sr.Plan.CandidateRoots < 0 || sr.Plan.PatternSpace <= 0 || sr.Plan.Frontier <= 0 {
		t.Errorf("plan statistics missing: %+v", sr.Plan)
	}
	if len(sr.Answers) == 0 {
		t.Error("auto search returned no answers")
	}
}

// TestExplicitRequestsCarryPlan: plan observability is not auto-only —
// explicit algorithm requests report their stage timings too, with
// Auto=false.
func TestExplicitRequestsCarryPlan(t *testing.T) {
	_, ts := newTestServer(t)
	_, sr := postSearch(t, ts.URL, SearchRequest{Query: "software company", Algorithm: "le"})
	if sr == nil || sr.Plan == nil {
		t.Fatal("explicit request has no plan")
	}
	if sr.Plan.Auto {
		t.Error("explicit request marked auto")
	}
	if sr.Plan.Algorithm != "linearenum" {
		t.Errorf("plan algorithm = %q", sr.Plan.Algorithm)
	}
}

// TestAutoSharesCacheWithExplicit pins the resolved-algorithm cache
// keying: an "auto" request that resolves to algorithm X and an explicit
// X request occupy ONE cache entry, in both request orders.
func TestAutoSharesCacheWithExplicit(t *testing.T) {
	_, ts := newTestServer(t)
	q := "database software company revenue"

	// auto first → explicit hit.
	_, first := postSearch(t, ts.URL, SearchRequest{Query: q, Algorithm: "auto"})
	if first.Cached {
		t.Fatal("first request cached")
	}
	_, second := postSearch(t, ts.URL, SearchRequest{Query: q, Algorithm: first.Algorithm})
	if !second.Cached {
		t.Errorf("explicit %q after auto missed the cache", first.Algorithm)
	}
	if !reflect.DeepEqual(first.Answers, second.Answers) {
		t.Error("cached answers differ from auto answers")
	}
	// The explicit request did not ask the planner, even though the entry
	// was populated by one that did: its plan must not claim auto.
	if second.Plan == nil || second.Plan.Auto || second.Plan.Reason != "" {
		t.Errorf("explicit hit on auto-populated entry carries plan %+v, want auto=false without reason", second.Plan)
	}

	// explicit first → auto hit (different query to dodge the warm entry).
	q2 := "company revenue"
	_, e1 := postSearch(t, ts.URL, SearchRequest{Query: q2, Algorithm: "pe"})
	if e1.Cached {
		t.Fatal("first explicit request cached")
	}
	_, a2 := postSearch(t, ts.URL, SearchRequest{Query: q2, Algorithm: "auto"})
	if a2.Algorithm == "patternenum" && !a2.Cached {
		t.Error("auto resolving to patternenum missed the explicit entry")
	}
	if a2.Cached {
		if a2.Plan == nil || !a2.Plan.Auto || a2.Plan.Reason == "" {
			t.Errorf("cached auto hit should reflect this request's planner decision, plan = %+v", a2.Plan)
		}
		// The hit overlays this request's probe statistics, so hit and
		// miss responses agree (the explicit-PE entry's own plan had
		// candidate_roots -1 and no pattern space).
		if a2.Plan.CandidateRoots < 0 || a2.Plan.PatternSpace <= 0 || a2.Plan.Frontier <= 0 {
			t.Errorf("cached auto hit missing probe statistics: %+v", a2.Plan)
		}
	}
}

// TestCacheKeyNormalization pins the normalization satellite: requests
// that differ only in defaulted fields or query spelling share an entry.
func TestCacheKeyNormalization(t *testing.T) {
	_, ts := newTestServer(t)

	// k omitted (0) vs the default it resolves to (10).
	_, r1 := postSearch(t, ts.URL, SearchRequest{Query: "software company"})
	if r1.Cached {
		t.Fatal("first request cached")
	}
	if r1.K != 10 {
		t.Fatalf("k defaulted to %d, want 10", r1.K)
	}
	_, r2 := postSearch(t, ts.URL, SearchRequest{Query: "software company", K: 10})
	if !r2.Cached {
		t.Error(`{"k":0} and {"k":10} occupied separate cache entries`)
	}

	// Whitespace and case folding.
	_, r3 := postSearch(t, ts.URL, SearchRequest{Query: "  Software\t COMPANY ", K: 10})
	if !r3.Cached {
		t.Error("whitespace/case variant occupied a separate cache entry")
	}

	// Defaulted d and max_rows.
	_, r4 := postSearch(t, ts.URL, SearchRequest{Query: "software company", D: 3, MaxRows: 50})
	if !r4.Cached {
		t.Error("explicit defaults occupied a separate cache entry")
	}
}

// TestHealthzPlannerCounters: /healthz aggregates auto traffic and the
// planner's decisions.
func TestHealthzPlannerCounters(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		postSearch(t, ts.URL, SearchRequest{Query: "software company", Algorithm: "auto"})
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Planner.AutoRequests != 3 {
		t.Errorf("auto_requests = %d, want 3", hr.Planner.AutoRequests)
	}
	if hr.Planner.ChosePatternEnum+hr.Planner.ChoseLinearEnum != 3 {
		t.Errorf("planner decisions %d + %d don't sum to 3",
			hr.Planner.ChosePatternEnum, hr.Planner.ChoseLinearEnum)
	}
}

// TestDefaultAlgorithmConfig: requests that omit "algorithm" use the
// configured default — here "auto", so the response names a resolved
// algorithm and the planner counters move.
func TestDefaultAlgorithmConfig(t *testing.T) {
	srv := New(Config{Engine: fig1Engine(t), D: 3, DefaultAlgorithm: "auto"})
	ts := newHTTPServer(t, srv)
	_, sr := postSearch(t, ts.URL, SearchRequest{Query: "software company"})
	if sr.Algorithm != "patternenum" && sr.Algorithm != "linearenum" {
		t.Fatalf("default-auto request resolved to %q", sr.Algorithm)
	}
	if sr.Plan == nil || !sr.Plan.Auto {
		t.Errorf("default-auto request should carry an auto plan, got %+v", sr.Plan)
	}
	if srv.autoRequests.Load() != 1 {
		t.Errorf("auto_requests = %d, want 1", srv.autoRequests.Load())
	}
}
