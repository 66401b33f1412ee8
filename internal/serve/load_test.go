package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// blockingEngine is a real engine whose searches park on release,
// counting how many times SearchPlan actually ran — the probe for the
// result cache (a hit runs nothing) and admission control (it holds
// slots occupied at will). Released, a search runs for real, except that
// the first panics searches panic.
type blockingEngine struct {
	*kbtable.Engine
	executions atomic.Int64
	release    chan struct{}
	panics     atomic.Int64

	mu      sync.Mutex
	started []string // queries in execution-start order
}

func newBlockingEngine(t *testing.T) *blockingEngine {
	return &blockingEngine{Engine: fig1Engine(t, 0), release: make(chan struct{})}
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
		body, _ := json.Marshal(api.SearchRequest{Query: query, K: 5})
		return client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
	}

	codes := make(chan int, 2)
	// First request occupies the only slot. Second queues.
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
	if h := getHealth(t, srv.Handler()); h.Serving.ShedQueueFull != 1 {
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
		body, _ := json.Marshal(api.SearchRequest{Query: "holds the slot", K: 5})
		resp, err := client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "slot occupied", func() bool {
		inFlight, _ := srv.gate.depth()
		return inFlight == 1
	})

	body, _ := json.Marshal(api.SearchRequest{Query: "times out in queue", K: 5})
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
		body, _ := json.Marshal(api.SearchRequest{Query: query, K: 5})
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
