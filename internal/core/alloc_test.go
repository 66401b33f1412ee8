//go:build !race

package core

import (
	"fmt"
	"testing"

	"kbtable/internal/kg"
)

// The race detector changes allocation counts, so the allocation budgets
// live behind !race; CI runs them in a plain `go test -run Alloc` step.

// TestTopKRejectAllocFree holds the reason OfferFunc exists: an item a full
// queue rejects on score alone costs no key and no allocation.
func TestTopKRejectAllocFree(t *testing.T) {
	q := NewTopK[int](3)
	for i := 0; i < 3; i++ {
		q.Offer(float64(10+i), fmt.Sprint(i), i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if q.OfferFunc(1, func() string { panic("key computed for a score below the k-th") }, 0) {
			panic("retained")
		}
	})
	if allocs != 0 {
		t.Errorf("rejected OfferFunc allocates %v times", allocs)
	}
}

// TestContentKeyAllocs: a content key is one allocation — the key itself —
// whatever the number of paths, since the per-path keys are stored at
// Intern and the table read takes no lock.
func TestContentKeyAllocs(t *testing.T) {
	pt := NewPatternTable()
	var tp TreePattern
	for i := 0; i < 6; i++ {
		tp.Paths = append(tp.Paths, pt.Intern(PathPattern{Types: []kg.TypeID{kg.TypeID(i)}}))
	}
	var key string
	if allocs := testing.AllocsPerRun(100, func() { key = tp.ContentKey(pt) }); allocs != 1 {
		t.Errorf("ContentKey allocates %v times, want 1", allocs)
	}
	_ = key
}
