package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"kbtable"
	"kbtable/internal/api"
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
		{Query: "software company revenue", K: 10, Algorithm: "baseline"},
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

// TestShardedConcurrentSearchAndUpdateConsistency is the sharded flavor of
// the epoch-consistency hammer: many searchers race updates against a
// 3-shard engine, and — under -race — every response must be
// byte-identical to the ground truth of the epoch it names, while per-
// shard epochs advance only on the shards an update touched.
func TestShardedConcurrentSearchAndUpdateConsistency(t *testing.T) {
	const (
		numUpdates   = 6
		numSearchers = 6
		perSearcher  = 40
	)
	queries := []SearchRequest{
		{Query: "database software", K: 10},
		{Query: "database software", K: 10, Algorithm: "linearenum"},
		{Query: "software company revenue", K: 10},
	}
	updates := epochUpdates(numUpdates)

	// Ground truth: replay the same chain offline on an identical sharded
	// engine (ApplyUpdate is deterministic and copy-on-write).
	base := fig1Sharded(t, 3)
	expected := make([]map[string][]SearchAnswer, numUpdates+1)
	eng := base
	for ep := 0; ep <= numUpdates; ep++ {
		expected[ep] = make(map[string][]SearchAnswer)
		for _, q := range queries {
			key := q.Query + "|" + q.Algorithm
			algo, err := api.ParseAlgorithm(q.Algorithm)
			if err != nil {
				t.Fatal(err)
			}
			answers, err := eng.SearchOpts(kbtable.NormalizeQuery(q.Query), kbtable.SearchOptions{
				K: q.K, Algorithm: algo, MaxRowsPerTable: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			was := make([]SearchAnswer, 0, len(answers))
			for _, a := range answers {
				was = append(was, SearchAnswer{
					Rank: a.Rank, Score: a.Score, NumRows: a.NumRows,
					Pattern: a.Pattern, Columns: a.Columns, FullColumns: a.FullColumns, Rows: a.Rows,
				})
			}
			expected[ep][key] = was
		}
		if ep < numUpdates {
			next, _, err := eng.ApplyUpdate(updates[ep])
			if err != nil {
				t.Fatal(err)
			}
			eng = next
		}
	}

	srv := New(Config{Engine: base, D: 3, CacheSize: 16})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	var published atomic.Uint64
	var wg sync.WaitGroup
	errc := make(chan error, numSearchers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, u := range updates {
			body, _ := json.Marshal(UpdateRequest{Ops: u.Ops})
			resp, err := client.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			var ur UpdateResponse
			err = json.NewDecoder(resp.Body).Decode(&ur)
			resp.Body.Close()
			if err != nil {
				errc <- err
				return
			}
			if ur.Epoch != uint64(i+1) {
				errc <- fmt.Errorf("update %d published epoch %d", i, ur.Epoch)
				return
			}
			if ur.AffectedShards < 1 || ur.AffectedShards > 3 {
				errc <- fmt.Errorf("update %d touched %d shards", i, ur.AffectedShards)
				return
			}
			published.Store(ur.Epoch)
		}
	}()

	for s := 0; s < numSearchers; s++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perSearcher; i++ {
				q := queries[(worker+i)%len(queries)]
				low := published.Load()
				body, _ := json.Marshal(q)
				resp, err := client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var sr SearchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				key := q.Query + "|" + q.Algorithm
				want := expected[sr.Epoch][key]
				if !reflect.DeepEqual(sr.Answers, want) {
					errc <- fmt.Errorf("worker %d: %q@epoch %d diverges from sharded ground truth", worker, q.Query, sr.Epoch)
					return
				}
				if !sr.Cached && sr.Epoch < low {
					errc <- fmt.Errorf("uncached response from epoch %d after %d was published", sr.Epoch, low)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if got := srv.Epoch(); got != numUpdates {
		t.Fatalf("final epoch = %d, want %d", got, numUpdates)
	}
	// The update chain only ever touched the Figure 1 software cluster;
	// per-shard epochs must reflect routed work, not blanket rebuilds.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Shards == nil || hr.Shards.Count != 3 {
		t.Fatalf("healthz shard info = %+v", hr.Shards)
	}
	var bumps uint64
	for _, e := range hr.Shards.Epochs {
		bumps += e
	}
	if bumps == 0 {
		t.Fatal("no shard epoch ever advanced across 6 updates")
	}
}
