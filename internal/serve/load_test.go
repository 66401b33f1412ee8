package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kbtable"
)

// blockingEngine is a real engine whose searches park on release,
// counting how many times SearchPlan actually ran — the probe for
// coalescing (it should run once for N identical concurrent queries)
// and admission control (it holds slots occupied at will). Released, a
// search runs for real, except that the first panics searches panic.
type blockingEngine struct {
	*kbtable.Engine
	executions atomic.Int64
	release    chan struct{}
	panics     atomic.Int64

	mu      sync.Mutex
	started []string // queries in execution-start order
}

func newBlockingEngine(t *testing.T) *blockingEngine {
	return &blockingEngine{Engine: fig1Engine(t), release: make(chan struct{})}
}

func (e *blockingEngine) SearchPlan(ctx context.Context, query string, opts kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error) {
	e.executions.Add(1)
	e.mu.Lock()
	e.started = append(e.started, query)
	e.mu.Unlock()
	select {
	case <-e.release:
	case <-ctx.Done():
		return nil, kbtable.PlanInfo{}, ctx.Err()
	}
	if e.panics.Add(-1) >= 0 {
		panic("injected search failure")
	}
	return e.Engine.SearchPlan(ctx, query, opts)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCoalescingSharesExecution pins the read-coalescing contract:
// N identical concurrent queries (cache disabled, so none is a cache
// hit) execute the search ONCE; every caller receives byte-identical
// answers, and all but the leader are marked coalesced.
func TestCoalescingSharesExecution(t *testing.T) {
	const n = 8
	eng := newBlockingEngine(t)
	srv := New(Config{Engine: eng, D: 3, CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	type result struct {
		sr   SearchResponse
		code int
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(SearchRequest{Query: "database software", K: 5})
			resp, err := client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sr SearchResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Error(err)
				return
			}
			results <- result{sr, resp.StatusCode}
		}()
	}

	// Every request holds an admission slot while it executes or waits
	// on the shared flight, so gate occupancy reaching n means all n are
	// in place — exactly one of them in the engine. Only then release.
	waitFor(t, "all requests admitted", func() bool {
		inFlight, _ := srv.gate.depth()
		return inFlight == n
	})
	if got := eng.executions.Load(); got != 1 {
		t.Fatalf("%d executions before release, want 1", got)
	}
	close(eng.release)
	wg.Wait()
	close(results)

	if got := eng.executions.Load(); got != 1 {
		t.Fatalf("%d executions, want 1", got)
	}
	var coalesced int
	var first *SearchResponse
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if r.sr.Coalesced {
			coalesced++
		}
		if first == nil {
			first = &r.sr
			continue
		}
		if !reflect.DeepEqual(r.sr.Answers, first.Answers) {
			t.Fatal("coalesced answers diverge")
		}
		if r.sr.Epoch != first.Epoch {
			t.Fatalf("coalesced epochs diverge: %d vs %d", r.sr.Epoch, first.Epoch)
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d coalesced responses, want %d", coalesced, n-1)
	}
	if h := healthz(t, ts.URL); h.Serving.Coalesced != n-1 {
		t.Fatalf("healthz coalesced = %d, want %d", h.Serving.Coalesced, n-1)
	}
}

// healthz fetches and decodes GET /healthz.
func healthz(t *testing.T, url string) *HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return &h
}

// TestAdmissionShedsWithRetryAfter pins load shedding: with one
// execution slot and a one-deep queue, a third concurrent request is
// rejected 429 with a Retry-After header, and the first two complete
// normally once the engine unblocks.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	eng := newBlockingEngine(t)
	srv := New(Config{Engine: eng, D: 3, CacheSize: -1, MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	post := func(query string) (*http.Response, error) {
		body, _ := json.Marshal(SearchRequest{Query: query, K: 5})
		return client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
	}

	codes := make(chan int, 2)
	// First request occupies the only slot (distinct queries: no flight
	// sharing). Second queues.
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			resp, err := post(fmt.Sprintf("query number %d", i))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, "one executing, one queued", func() bool {
		inFlight, queued := srv.gate.depth()
		return inFlight == 1 && queued == 1
	})

	// Third request: queue full, shed immediately.
	resp, err := post("query number 2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if _, err := strconv.Atoi(ra); err != nil {
		t.Fatalf("Retry-After %q is not a number", ra)
	}

	close(eng.release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("blocked request finished with %d", code)
		}
	}
	if h := healthz(t, ts.URL); h.Serving.ShedQueueFull != 1 {
		t.Fatalf("healthz shed_queue_full = %d, want 1", h.Serving.ShedQueueFull)
	}
}

// TestAdmissionQueueTimeout pins the queue-wait bound: a queued request
// whose wait exceeds QueueTimeout is shed with 429.
func TestAdmissionQueueTimeout(t *testing.T) {
	eng := newBlockingEngine(t)
	defer close(eng.release)
	srv := New(Config{
		Engine: eng, D: 3, CacheSize: -1,
		MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	go func() {
		body, _ := json.Marshal(SearchRequest{Query: "holds the slot", K: 5})
		resp, err := client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "slot occupied", func() bool {
		inFlight, _ := srv.gate.depth()
		return inFlight == 1
	})

	body, _ := json.Marshal(SearchRequest{Query: "times out in queue", K: 5})
	resp, err := client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestPriorityOrdersQueue pins priority admission: with the single slot
// busy and a high- and a low-priority request queued, releasing the
// slot serves the high-priority one first even though low arrived
// earlier.
func TestPriorityOrdersQueue(t *testing.T) {
	eng := newBlockingEngine(t)
	srv := New(Config{Engine: eng, D: 3, CacheSize: -1, MaxConcurrent: 1, MaxQueue: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	post := func(query, prio string) (*http.Response, error) {
		body, _ := json.Marshal(SearchRequest{Query: query, K: 5})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if prio != "" {
			req.Header.Set("X-KB-Priority", prio)
		}
		return client.Do(req)
	}

	go func() {
		if resp, err := post("slot holder", ""); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "slot occupied", func() bool {
		inFlight, _ := srv.gate.depth()
		return inFlight == 1
	})

	order := make(chan string, 2)
	launch := func(query, prio string) {
		go func() {
			resp, err := post(query, prio)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			order <- prio
		}()
	}
	launch("low priority probe", "low")
	waitFor(t, "low queued", func() bool {
		_, queued := srv.gate.depth()
		return queued == 1
	})
	launch("high priority probe", "high")
	waitFor(t, "high queued", func() bool {
		_, queued := srv.gate.depth()
		return queued == 2
	})

	// Unblock everyone. The slot holder finishes first and hands its
	// slot to the highest-priority waiter, so the server STARTS the high
	// search strictly before the low one. Client-observed completion
	// order is deliberately not asserted — once the engine is released
	// both responses land microseconds apart and their delivery races on
	// goroutine scheduling.
	close(eng.release)
	<-order
	<-order
	eng.mu.Lock()
	started := append([]string(nil), eng.started...)
	eng.mu.Unlock()
	want := []string{"slot holder", "high priority probe", "low priority probe"}
	if len(started) != len(want) || started[1] != want[1] || started[2] != want[2] {
		t.Fatalf("execution start order = %q, want %q", started, want)
	}
}

// TestMetricsEndpoint runs real traffic and then checks that /metrics
// parses as Prometheus text: every sample line matches the exposition
// grammar, required families are present, histogram buckets are
// cumulative, and the +Inf bucket equals the count.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{Engine: fig1Engine(t), D: 3, CacheSize: 16})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	postSearch(t, ts.URL, SearchRequest{Query: "database software", K: 5})
	postSearch(t, ts.URL, SearchRequest{Query: "database software", K: 5}) // cache hit
	var u kbtable.Update
	sw := u.AddEntity("Software", "metrics probe tool")
	u.AddTextAttr(sw, "License", "MIT license")
	postUpdate(t, ts.URL, UpdateRequest{Ops: u.Ops})

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"]*",?)*\})? [0-9.eE+-]+( [0-9]+)?$`)
	families := map[string]bool{}
	type histState struct {
		prev  uint64
		inf   uint64
		count uint64
	}
	hists := map[string]*histState{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("line does not parse as a Prometheus sample: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		families[name] = true

		// Histogram integrity: cumulative buckets, +Inf == count.
		if strings.HasSuffix(name, "_bucket") {
			base := strings.TrimSuffix(name, "_bucket")
			// One series per label-set prefix before le=.
			le := regexp.MustCompile(`le="([^"]*)"`).FindStringSubmatch(line)
			series := base
			if i := strings.Index(line, `le="`); i >= 0 {
				series = line[:i]
			}
			h := hists[series]
			if h == nil {
				h = &histState{}
				hists[series] = h
			}
			val, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			if val < h.prev {
				t.Fatalf("non-cumulative histogram bucket: %q", line)
			}
			h.prev = val
			if le != nil && le[1] == "+Inf" {
				h.inf = val
			}
		}
		if strings.HasSuffix(name, "_count") {
			val, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err == nil {
				base := strings.TrimSuffix(name, "_count")
				for series, h := range hists {
					if strings.HasPrefix(series, base) && h.count == 0 {
						h.count = val
					}
				}
			}
		}
	}
	for _, want := range []string{
		"kbserve_requests_total",
		"kbserve_request_duration_seconds_bucket",
		"kbserve_request_duration_seconds_count",
		"kbserve_searches_coalesced_total",
		"kbserve_admission_in_flight",
		"kbserve_admission_queue_depth",
		"kbserve_admission_shed_total",
		"kbserve_cache_hits_total",
		"kbserve_bound_pruned_total",
		"kbserve_plan_cache_hits_total",
		"kbserve_plan_cache_misses_total",
		"kbserve_epoch",
	} {
		if !families[want] {
			t.Fatalf("metric family %q missing; got %v", want, families)
		}
	}
	// The search histogram must have observed our two searches.
	if !strings.Contains(text, `kbserve_request_duration_seconds_count{op="search"} 2`) {
		t.Fatalf("search duration count missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, `kbserve_request_duration_seconds_count{op="update"} 1`) {
		t.Fatalf("update duration count missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, "kbserve_cache_hits_total 1") {
		t.Fatalf("cache hit count missing:\n%s", text)
	}
}

// TestPriorityRejectsUnknown pins request validation for the new field.
func TestPriorityRejectsUnknown(t *testing.T) {
	srv := New(Config{Engine: fig1Engine(t), D: 3})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	body, _ := json.Marshal(SearchRequest{Query: "database", K: 5, Priority: "urgent"})
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}
