//go:build !race

package api

import (
	"strconv"
	"testing"
)

// slices counts the slices a decoded response holds: the answers, and
// per answer its columns, full columns, rows and each row.
func slices(r *SearchResponse) int {
	n := 1
	for _, a := range r.Answers {
		n += 3 + len(a.Rows)
	}
	return n
}

// TestDecodeSearchResponseAlloc pins the client's decode budget: one
// string for the whole body, the response and its plan, and no more
// allocations than the slices it holds — never one per cell. Cells and
// rows come out of shared chunks, so the count stays far below that
// bound as tables grow.
func TestDecodeSearchResponseAlloc(t *testing.T) {
	wide := &SearchResponse{Query: "q", Plan: &PlanOut{}}
	for a := 0; a < 10; a++ {
		ans := SearchAnswer{Rank: a + 1, Score: 1, Columns: []string{"x", "y", "z"}, FullColumns: []string{"T.x", "T.y", "T.z"}}
		for r := 0; r < 200; r++ {
			s := strconv.Itoa(r)
			ans.Rows = append(ans.Rows, []string{"cell " + s, "row " + s, "value"})
		}
		wide.Answers = append(wide.Answers, ans)
	}
	bodies := map[string][]byte{"wide": encode(t, wide)}
	for name, resp := range goldenResponses(t) {
		bodies[name] = encode(t, resp)
	}
	for name, body := range bodies {
		resp, err := DecodeSearchResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeSearchResponse(body); err != nil {
				t.Fatal(err)
			}
		})
		if budget := 3 + slices(resp); allocs > float64(budget) {
			t.Errorf("%s: %.0f allocations per decode, budget %d (one string, response, plan, slices)", name, allocs, budget)
		}
		if name == "wide" {
			t.Logf("wide: %.0f allocations for %d slices of a %d-byte body", allocs, slices(resp), len(body))
			if allocs > 40 {
				t.Error("wide: cells are not sharing chunks")
			}
		}
	}
}
