package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"kbtable"
	"kbtable/internal/api"
)

// epochUpdates builds the deterministic update sequence the consistency
// test replays: each update adds a software entity wired to the Figure 1
// graph, so the "database software" answer set grows epoch by epoch.
func epochUpdates(n int) []kbtable.Update {
	out := make([]kbtable.Update, n)
	for i := range out {
		var u kbtable.Update
		sw := u.AddEntity("Software", fmt.Sprintf("DBMS mark%d", i))
		u.AddAttr(sw, "Genre", 1)     // Relational database
		u.AddAttr(sw, "Developer", 2) // Microsoft
		out[i] = u
	}
	return out
}

// TestConcurrentSearchAndUpdateConsistency hammers POST /search from many
// goroutines while POST /update publishes a known sequence of epochs, and
// checks — under -race — that every single response is byte-identical to
// the precomputed ground truth of the epoch it claims to belong to: no
// torn reads, no half-applied updates, no stale cache entries leaking
// across an invalidation.
func TestConcurrentSearchAndUpdateConsistency(t *testing.T) {
	const (
		numUpdates   = 6
		numSearchers = 8
		perSearcher  = 60
	)
	queries := []SearchRequest{
		{Query: "database software", K: 10},
		{Query: "database software", K: 10, Algorithm: "linearenum"},
		{Query: "software company revenue", K: 10},
		{Query: "founder person", K: 10},
	}
	updates := epochUpdates(numUpdates)

	// Ground truth: replay the same update chain offline. ApplyUpdate is
	// deterministic and copy-on-write, so engine i here is bit-identical
	// to the server's engine at epoch i.
	base := fig1Engine(t)
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

	var published atomic.Uint64 // highest epoch the updater has seen acked
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
			published.Store(ur.Epoch)
		}
	}()

	for s := 0; s < numSearchers; s++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perSearcher; i++ {
				q := queries[(worker+i)%len(queries)]
				low := published.Load() // epochs acked before we sent
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
				if sr.Epoch > numUpdates {
					errc <- fmt.Errorf("response names unpublished epoch %d", sr.Epoch)
					return
				}
				key := q.Query + "|" + q.Algorithm
				want := expected[sr.Epoch][key]
				if !reflect.DeepEqual(sr.Answers, want) {
					errc <- fmt.Errorf("worker %d: %q@epoch %d: answers diverge from ground truth (%d vs %d answers)",
						worker, q.Query, sr.Epoch, len(sr.Answers), len(want))
					return
				}
				// Freshness: an uncached response must come from an epoch
				// at least as new as the last one acked before the request
				// was sent. (A cached response may legitimately be older —
				// it is retained only while provably unchanged.)
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

	// After the dust settles the server must be on the final epoch and a
	// fresh query must see the fully updated KB.
	if got := srv.Epoch(); got != numUpdates {
		t.Fatalf("final epoch = %d, want %d", got, numUpdates)
	}
	_, sr := postSearch(t, ts.URL, SearchRequest{Query: "mark0 mark1 database", K: 5})
	if sr.Epoch != numUpdates {
		t.Fatalf("fresh query on epoch %d", sr.Epoch)
	}
}

// TestConcurrentUpdatersDontCorrupt lets several writers race each other
// (updates are serialized internally) along with readers, asserting only
// structural sanity: all updates are acked with distinct epochs and the
// final epoch equals the number of updates applied.
func TestConcurrentUpdatersDontCorrupt(t *testing.T) {
	const writers, perWriter, readers = 4, 5, 4
	srv := New(Config{Engine: fig1Engine(t), D: 3, CacheSize: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()

	var wg sync.WaitGroup
	epochs := make(chan uint64, writers*perWriter)
	errc := make(chan error, writers+readers)
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				var u kbtable.Update
				sw := u.AddEntity("Software", fmt.Sprintf("tool w%dn%d", wr, i))
				u.AddTextAttr(sw, "License", "MIT license")
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
				epochs <- ur.Epoch
			}
		}(wr)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				body, _ := json.Marshal(SearchRequest{Query: "software license", K: 5})
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
				for j, a := range sr.Answers {
					if a.Rank != j+1 {
						errc <- fmt.Errorf("rank %d mislabeled", j)
						return
					}
					for _, row := range a.Rows {
						if len(row) != len(a.Columns) {
							errc <- fmt.Errorf("torn table: %d cells for %d columns", len(row), len(a.Columns))
							return
						}
					}
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	close(epochs)
	seen := map[uint64]bool{}
	for e := range epochs {
		if seen[e] {
			t.Fatalf("epoch %d acked twice", e)
		}
		seen[e] = true
	}
	if len(seen) != writers*perWriter || srv.Epoch() != uint64(writers*perWriter) {
		t.Fatalf("acked %d distinct epochs, final %d", len(seen), srv.Epoch())
	}
}
