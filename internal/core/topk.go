package core

import "sort"

// TopK keeps the k highest-scoring items seen so far. Ranking is by score
// descending with ties broken by key ascending, so results are
// deterministic across runs regardless of insertion order. Insertion is
// O(log k) per the paper's Exp-IV analysis.
//
// The key is only ever read to order items of equal score, so an item that
// loses on score alone never needs one: OfferFunc takes the key as a
// function and calls it only when the score reaches the current k-th score
// (the queue is not full yet, the item displaces the worst, or it ties with
// it). Offer is the form for callers that already hold the key.
type TopK[T any] struct {
	k int
	// items is a min-heap sifted in place: items[0] is the *worst*
	// retained item.
	items []topkItem[T]
}

type topkItem[T any] struct {
	score float64
	key   string
	val   T
}

// worse reports whether a ranks below b: lower score, or on a tie the
// larger key.
func (a *topkItem[T]) worse(b *topkItem[T]) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.key > b.key
}

// NewTopK returns a TopK retaining at most k items; k <= 0 retains none.
func NewTopK[T any](k int) *TopK[T] {
	return &TopK[T]{k: k}
}

// Offer considers an item. It returns true if the item was retained.
func (t *TopK[T]) Offer(score float64, key string, val T) bool {
	if t.k <= 0 {
		return false
	}
	it := topkItem[T]{score: score, key: key, val: val}
	if len(t.items) < t.k {
		t.items = append(t.items, it)
		t.up(len(t.items) - 1)
		return true
	}
	if !t.items[0].worse(&it) {
		return false
	}
	t.items[0] = it
	t.down(0)
	return true
}

// OfferFunc is Offer with the tie-break key computed on demand: key runs
// at most once, and only when score reaches the current k-th score — never
// for an item a full queue rejects on score alone.
func (t *TopK[T]) OfferFunc(score float64, key func() string, val T) bool {
	if !t.WouldAccept(score) {
		return false
	}
	return t.Offer(score, key(), val)
}

// up restores the heap after items[j] was appended.
func (t *TopK[T]) up(j int) {
	h := t.items
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h[j].worse(&h[i]) {
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
		if r := j + 1; r < n && h[r].worse(&h[j]) {
			j = r
		}
		if !h[j].worse(&h[i]) {
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
// total order on (score, key) and Offer keeps the best k of everything it
// has seen, merging per-worker queues yields the same retained set in any
// merge order — the property parallel query execution relies on.
func (t *TopK[T]) Merge(src *TopK[T]) {
	for _, it := range src.items {
		t.Offer(it.score, it.key, it.val)
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

// sorted returns a best-first copy of the retained items.
func (t *TopK[T]) sorted() []topkItem[T] {
	s := make([]topkItem[T], len(t.items))
	copy(s, t.items)
	sort.Slice(s, func(i, j int) bool { return s[j].worse(&s[i]) })
	return s
}

// Results returns the retained items sorted best-first.
func (t *TopK[T]) Results() []T {
	s := t.sorted()
	out := make([]T, len(s))
	for i := range s {
		out[i] = s[i].val
	}
	return out
}

// ResultScores returns the retained scores sorted best-first, parallel to
// Results.
func (t *TopK[T]) ResultScores() []float64 {
	s := t.sorted()
	out := make([]float64, len(s))
	for i := range s {
		out[i] = s[i].score
	}
	return out
}
