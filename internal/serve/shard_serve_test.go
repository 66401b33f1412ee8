package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"kbtable"
)

// fig1Sharded builds a sharded engine over the Figure 1 knowledge base.
func fig1Sharded(t *testing.T, shards int) *kbtable.Engine {
	t.Helper()
	eng, err := kbtable.NewEngine(fig1Graph(t), kbtable.EngineOptions{D: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestShardedServerMatchesUnsharded pins that a server backed by a sharded
// engine returns byte-identical /search responses to an unsharded one, and
// that /healthz reports the shard layout.
func TestShardedServerMatchesUnsharded(t *testing.T) {
	flat := httptest.NewServer(New(Config{Engine: fig1Engine(t), D: 3}).Handler())
	t.Cleanup(flat.Close)
	sharded := httptest.NewServer(New(Config{Engine: fig1Sharded(t, 3), D: 3}).Handler())
	t.Cleanup(sharded.Close)

	for _, req := range []SearchRequest{
		{Query: "database software", K: 10},
		{Query: "database software", K: 10, Algorithm: "linearenum"},
		{Query: "software company revenue", K: 10, Algorithm: "auto"},
	} {
		_, want := postSearch(t, flat.URL, req)
		_, got := postSearch(t, sharded.URL, req)
		if !reflect.DeepEqual(want.Answers, got.Answers) {
			t.Fatalf("%q (%s): sharded answers diverge:\nflat:    %+v\nsharded: %+v",
				req.Query, req.Algorithm, want.Answers, got.Answers)
		}
	}

	resp, err := http.Get(sharded.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Shards == nil || hr.Shards.Count != 3 {
		t.Fatalf("healthz shard info = %+v, want count 3", hr.Shards)
	}
	if len(hr.Shards.Epochs) != 3 || len(hr.Shards.Roots) != 3 {
		t.Fatalf("healthz missing per-shard details: %+v", hr.Shards)
	}
	total := 0
	for _, r := range hr.Shards.Roots {
		total += r
	}
	if want := fig1Graph(t).NumEntities(); total != want {
		t.Fatalf("shard roots sum to %d, want %d", total, want)
	}
}
