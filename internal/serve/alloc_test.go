//go:build !race

package serve

import (
	"net/http"
	"strconv"
	"testing"

	"kbtable"
)

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestCacheHitWriteAlloc pins the cache-hit write budget: a handful of
// allocations (the reply buffer, the head and its encoding, the plan,
// the header value), the same for a table of 5 rows as for one of 5000,
// because the answers are spliced in as bytes encoded once, not
// re-encoded per hit.
func TestCacheHitWriteAlloc(t *testing.T) {
	const budget = 6
	chosen := &kbtable.PlanInfo{Algorithm: kbtable.PatternEnum, Auto: true, Reason: "cheaper"}
	var counts []float64
	for _, rows := range []int{5, 5000} {
		a := kbtable.Answer{Rank: 1, Score: 0.5, NumRows: rows, Pattern: "p", Columns: []string{"a", "b"}, FullColumns: []string{"T.a", "T.b"}}
		for r := 0; r < rows; r++ {
			a.Rows = append(a.Rows, []string{"cell <" + strconv.Itoa(r) + ">", "value"})
		}
		answers, err := encodeAnswers([]kbtable.Answer{a, a})
		if err != nil {
			t.Fatal(err)
		}
		e := &cacheEntry{head: SearchResponse{Query: "q", K: 10, Algorithm: "patternenum", D: 3, ElapsedMS: 1.5}, answers: answers}
		w := &discardWriter{h: http.Header{}}
		n := testing.AllocsPerRun(50, func() { e.write(w, chosen, true, false) })
		if n > budget {
			t.Errorf("%d rows: %.0f allocations per cache-hit write, budget %d", rows, n, budget)
		}
		t.Logf("%d rows: %.0f allocations per cache-hit write", rows, n)
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Errorf("cache-hit write allocations grow with the table: %v for 5 and 5000 rows", counts)
	}
}
