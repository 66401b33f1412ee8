//go:build !race

package client

import (
	"context"
	"runtime"
	"testing"

	"kbtable/internal/api"
)

// TestSearchReplyAlloc pins the heap bytes one Search of a 30 KB reply
// costs over httptest, both ends of the connection counted: the reply is
// read into a pooled buffer, not grown from empty, so what remains is
// the decode (one string of the body, the slices), the request and the
// transport. The budget is the measured 105,200 B (go1.24, amd64) plus
// 9 % headroom; growing each reply from empty, as io.ReadAll does, cost
// 259,121 B.
func TestSearchReplyAlloc(t *testing.T) {
	const budget = 115_000
	want, body := searchReply(t, 10, 60, "a cell value")
	if len(body) < 25_000 || len(body) > 35_000 {
		t.Fatalf("a %d-byte reply, want ~30 KB", len(body))
	}
	cl := New(replyServer(t, body).URL)
	req := &api.SearchRequest{Query: "q"}
	search := func() {
		if got, err := cl.Search(context.Background(), req); err != nil || got.Answers[9].Rows[59][0] != want.Answers[9].Rows[59][0] {
			t.Fatalf("search: %v", err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	search()
	var before, after runtime.MemStats
	const runs = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		search()
	}
	runtime.ReadMemStats(&after)
	perSearch := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B per Search of a %d-byte reply", perSearch, len(body))
	if perSearch > budget {
		t.Errorf("%d B allocated per Search of a %d-byte reply, budget %d B", perSearch, len(body), budget)
	}
}
