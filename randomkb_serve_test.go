package kbtable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/serve"
)

// TestRandomKBServed is the random-KB test's cache cell. For every seed
// of TestRandomKB, a serve.Server with its result cache on answers every
// query, applies the seed's chain of three updates through /v1/update,
// and answers every query again, partly from entries the updates left in
// the cache. Every reply must carry the answers of an engine built from
// scratch over the same graph: the result cache is the one thing between
// a request and a recomputation, so no entry may outlive an update that
// changed its answers.
func TestRandomKBServed(t *testing.T) {
	for _, half := range []int64{0, 1} {
		t.Run(fmt.Sprint(half), func(t *testing.T) {
			t.Parallel()
			var hits int
			for seed := half; seed < kbtable.RandomKBSeeds; seed += 2 {
				hits += checkServedKB(t, seed)
			}
			if hits == 0 {
				t.Error("no reply after an update came from the cache: the cell tested no cached entry")
			}
		})
	}
	t.Run("pinned", func(t *testing.T) {
		for _, seed := range kbtable.RandomKBPinned {
			checkServedKB(t, seed)
		}
	})
}

// checkServedKB runs seed's case through a server and returns how many
// replies after the updates were cache hits.
func checkServedKB(t *testing.T, seed int64) (hits int) {
	t.Helper()
	g, opts, queries, rng := kbtable.RandomKB(t, seed)
	opts.Workers = 1
	eng, err := kbtable.NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := serve.New(serve.Config{Engine: eng, D: opts.D}).Handler()
	label := fmt.Sprintf("seed %d (D %d, uniform PR %t)", seed, opts.D, opts.UniformPageRank)
	for _, q := range queries {
		servedSame(t, label, h, eng, q, 0)
	}
	for step := 1; step <= 3; step++ {
		u := kbtable.RandomKBUpdate(t, rng, eng)
		if eng, _, err = eng.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(api.UpdateRequest{Ops: u.Ops})
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s, update %d: status %d %s", label, step, w.Code, w.Body)
		}
	}
	rebuild, err := kbtable.NewEngine(eng.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if servedSame(t, label+" after 3 updates", h, rebuild, q, 3) {
			hits++
		}
	}
	return hits
}

// servedSame fails unless h answers q with want's answers, a miss at
// epoch (a hit keeps the epoch its entry was computed at), and reports
// whether the reply came from the cache.
func servedSame(t *testing.T, label string, h http.Handler, want *kbtable.Engine, q string, epoch uint64) bool {
	t.Helper()
	const k, maxRows = 5, 50
	body, _ := json.Marshal(api.SearchRequest{Query: q, K: k, MaxRows: maxRows})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s, query %q: status %d %s", label, q, w.Code, w.Body)
	}
	got, err := api.DecodeSearchResponse(w.Body.Bytes())
	if err != nil {
		t.Fatalf("%s, query %q: %v", label, q, err)
	}
	answers, _, err := want.SearchPlan(context.Background(), q, kbtable.SearchOptions{K: k, MaxRowsPerTable: maxRows})
	if err != nil {
		t.Fatalf("%s, query %q: %v", label, q, err)
	}
	ref := make([]api.SearchAnswer, len(answers))
	for i, a := range answers {
		ref[i] = api.SearchAnswer(a)
	}
	gotJSON, _ := json.Marshal(got.Answers)
	refJSON, _ := json.Marshal(ref)
	if (!got.Cached && got.Epoch != epoch) || !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("%s, query %q (cached %t): epoch %d, answers\n%s\nwant epoch %d, a fresh build's answers\n%s",
			label, q, got.Cached, got.Epoch, gotJSON, epoch, refJSON)
	}
	return got.Cached
}
