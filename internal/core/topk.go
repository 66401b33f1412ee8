package core

import (
	"slices"
	"sort"
)

// TopK keeps the k highest-scoring items seen so far. Ranking is by score
// descending with ties broken by the comparator NewTopK receives (the
// lesser value ranks first), so results are deterministic across runs
// regardless of insertion order. Insertion is O(log k) per the paper's
// Exp-IV analysis. The comparator runs only between items of equal score:
// an item that loses on score alone is never compared.
type TopK[T any] struct {
	k   int
	cmp func(a, b T) int
	// items is a min-heap sifted in place: items[0] is the *worst*
	// retained item.
	items []topkItem[T]
}

type topkItem[T any] struct {
	score float64
	val   T
}

// worse reports whether a ranks below b: lower score, or on a tie the
// greater value under cmp.
func (t *TopK[T]) worse(a, b *topkItem[T]) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return t.cmp(a.val, b.val) > 0
}

// NewTopK returns a TopK retaining at most k items (k <= 0 retains none)
// that orders equal scores by cmp ascending. cmp must be a total order on
// the values offered, or the retained set depends on insertion order.
func NewTopK[T any](k int, cmp func(a, b T) int) *TopK[T] {
	return &TopK[T]{k: k, cmp: cmp}
}

// Offer considers an item. It returns true if the item was retained.
func (t *TopK[T]) Offer(score float64, val T) bool {
	if t.k <= 0 {
		return false
	}
	it := topkItem[T]{score: score, val: val}
	if len(t.items) < t.k {
		t.items = append(t.items, it)
		t.up(len(t.items) - 1)
		return true
	}
	if !t.worse(&t.items[0], &it) {
		return false
	}
	t.items[0] = it
	t.down(0)
	return true
}

// up restores the heap after items[j] was appended.
func (t *TopK[T]) up(j int) {
	h := t.items
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !t.worse(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down restores the heap after items[i] was replaced.
func (t *TopK[T]) down(i int) {
	h := t.items
	n := len(h)
	for {
		j := 2*i + 1 // left child
		if j >= n {
			return
		}
		if r := j + 1; r < n && t.worse(&h[r], &h[j]) {
			j = r
		}
		if !t.worse(&h[j], &h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Reset empties the queue in place, retaining capacity. The streaming
// executor keeps one shard-local bounded heap per worker and resets it at
// every shard boundary, so pruning decisions depend only on the shard's
// own enumeration prefix (never on which worker ran the preceding shards)
// while the heap's backing array is allocated once.
func (t *TopK[T]) Reset() {
	clear(t.items) // drop value references so the GC can reclaim them
	t.items = t.items[:0]
}

// Merge offers every item retained by src into t. Because ranking is a
// total order on (score, cmp) and Offer keeps the best k of everything it
// has seen, merging per-worker queues yields the same retained set in any
// merge order — the property parallel query execution relies on.
func (t *TopK[T]) Merge(src *TopK[T]) {
	for _, it := range src.items {
		t.Offer(it.score, it.val)
	}
}

// WouldAccept reports whether an item with the given score could enter the
// queue, letting callers skip expensive materialization for hopeless items.
func (t *TopK[T]) WouldAccept(score float64) bool {
	if t.k <= 0 {
		return false
	}
	if len(t.items) < t.k {
		return true
	}
	return score >= t.items[0].score
}

// Len returns the number of retained items.
func (t *TopK[T]) Len() int { return len(t.items) }

// Results returns the retained items sorted best-first.
func (t *TopK[T]) Results() []T {
	s := slices.Clone(t.items)
	sort.Slice(s, func(i, j int) bool { return t.worse(&s[j], &s[i]) })
	out := make([]T, len(s))
	for i := range s {
		out[i] = s[i].val
	}
	return out
}
