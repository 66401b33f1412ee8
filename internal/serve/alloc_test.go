//go:build !race

package serve

import (
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"kbtable"
	"kbtable/internal/api"
)

// discardWriter is a ResponseWriter that keeps nothing. Like net/http's
// own, it writes strings without converting them.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header               { return w.h }
func (w *discardWriter) Write(p []byte) (int, error)       { return len(p), nil }
func (w *discardWriter) WriteString(s string) (int, error) { return len(s), nil }
func (w *discardWriter) WriteHeader(int)                   {}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after one warm-up call, on a single P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCacheHitWriteAlloc pins the cache-hit write budget: three
// allocations (the head, its encoding and the header value; the plan is
// the entry's own) of at most 512 bytes together, the same for a table
// of 5 rows as for one of 5000, because the answers are written as the
// bytes the entry holds, encoded once, neither re-encoded nor copied per
// hit.
func TestCacheHitWriteAlloc(t *testing.T) {
	const budget, bytesBudget = 3, 512
	plan := api.PlanOf(kbtable.PlanInfo{Algorithm: kbtable.PatternEnum, Auto: true, Reason: "cheaper"})
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
		e := &cacheEntry{head: api.SearchResponse{Query: "q", K: 10, Algorithm: "patternenum", D: 3, ElapsedMS: 1.5, Plan: plan}, answers: answers}
		w := &discardWriter{h: http.Header{}}
		n := testing.AllocsPerRun(50, func() { e.write(w, true) })
		if n > budget {
			t.Errorf("%d rows: %.0f allocations per cache-hit write, budget %d", rows, n, budget)
		}
		b := bytesPerRun(50, func() { e.write(w, true) })
		if b > bytesBudget {
			t.Errorf("%d rows: %d B allocated per cache-hit write of a %d-byte answer block, budget %d B", rows, b, len(answers), bytesBudget)
		}
		t.Logf("%d rows: %.0f allocations, %d B per cache-hit write", rows, n, b)
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Errorf("cache-hit write allocations grow with the table: %v for 5 and 5000 rows", counts)
	}
}
