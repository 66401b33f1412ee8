package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"kbtable/internal/api"
	"kbtable/internal/client"
)

// TestClientShedRetry pins the shed contract: the client makes one
// attempt and surfaces a shed typed, with the server's Retry-After
// parsed, for the caller to back off on.
func TestClientShedRetry(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"shed","message":"overloaded","retry_after_ms":1}}`))
	}))
	t.Cleanup(ts.Close)

	_, err := client.New(ts.URL).Search(context.Background(), &api.SearchRequest{Query: "q"})
	if !client.IsShed(err) {
		t.Fatalf("want shed, got %v", err)
	}
	apiErr := err.(*client.APIError)
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("shed carried no retry hint: %+v", apiErr)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}
