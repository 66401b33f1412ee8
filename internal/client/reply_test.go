package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"kbtable/internal/api"
)

// searchReply is a /v1/search reply of answers tables of rows rows, its
// cells written with fill, encoded as the server encodes it.
func searchReply(t testing.TB, answers, rows int, fill string) (*api.SearchResponse, []byte) {
	t.Helper()
	resp := &api.SearchResponse{Query: "q " + fill, K: 10, Algorithm: "patternenum", D: 3, Epoch: 1,
		Plan: &api.PlanOut{Algorithm: "patternenum", Reason: fill}}
	for a := 0; a < answers; a++ {
		ans := api.SearchAnswer{Rank: a + 1, Score: 1 / float64(a+1), NumRows: rows, Pattern: "Type -> " + fill,
			Columns: []string{"Name", "Attr"}, FullColumns: []string{"Type.name", "Type.attr"}}
		for r := 0; r < rows; r++ {
			ans.Rows = append(ans.Rows, []string{fill + " " + strconv.Itoa(r), strings.Repeat(fill, 2)})
		}
		resp.Answers = append(resp.Answers, ans)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// replyServer answers every /v1/search with the next of bodies, in turn,
// and /v1/healthz with a fixed health reply.
func replyServer(t testing.TB, bodies ...[]byte) *httptest.Server {
	t.Helper()
	var next atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/v1/healthz" {
			_, _ = w.Write([]byte(`{"status":"ok","epoch":7,"uptime_seconds":1,"readonly":true}` + "\n"))
			return
		}
		_, _ = w.Write(bodies[(next.Add(1)-1)%int64(len(bodies))])
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestReplyBufferDoesNotEscape holds the client to its one read path's
// contract: a reply buffer goes back to the pool once decoded, so nothing
// a call returns may alias it. Two searches with replies of the same
// shape and different bytes run back to back on one client, a health
// call between them; the first response must still read as its reply.
func TestReplyBufferDoesNotEscape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the next call takes the buffer just returned
	wantA, bodyA := searchReply(t, 4, 20, "aaaa")
	wantB, bodyB := searchReply(t, 4, 20, "bbbb")
	if len(bodyA) != len(bodyB) {
		t.Fatalf("replies of %d and %d bytes: the second must overwrite the first in place", len(bodyA), len(bodyB))
	}
	cl := New(replyServer(t, bodyA, bodyB).URL)
	ctx := context.Background()
	gotA, err := cl.Search(ctx, &api.SearchRequest{Query: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	gotB, err := cl.Search(ctx, &api.SearchRequest{Query: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("second search decoded %+v, want %+v", gotB, wantB)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Errorf("the first response changed under later calls: query %q, pattern %q, first cell %q",
			gotA.Query, gotA.Answers[0].Pattern, gotA.Answers[0].Rows[0][0])
	}
}

// TestOutsizedReplyNotPooled holds the pool to its cap: a reply larger
// than maxPooledReply decodes like any other, and its buffer is dropped
// rather than kept for the next call.
func TestOutsizedReplyNotPooled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a pooled buffer is the next Get's
	want, body := searchReply(t, 10, 5000, "cell")
	if len(body) <= maxPooledReply {
		t.Fatalf("a %d-byte reply does not exceed the %d-byte cap", len(body), maxPooledReply)
	}
	got, err := New(replyServer(t, body).URL).Search(context.Background(), &api.SearchRequest{Query: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the outsized reply decoded wrong")
	}
	for i := 0; i < 8; i++ {
		if buf := replyBufs.Get().(*bytes.Buffer); buf.Cap() > maxPooledReply {
			t.Fatalf("the pool kept a %d-byte reply buffer, cap %d", buf.Cap(), maxPooledReply)
		}
	}
}
