// Package serve turns a kbtable engine into a long-running HTTP search
// service: a JSON POST /v1/search endpoint with per-request timeouts, a
// POST /v1/update endpoint that applies live knowledge-base mutations with an
// atomic epoch swap (in-flight searches finish on their snapshot), a
// GET /v1/healthz endpoint, an LRU cache over normalized queries with
// word-precise invalidation, and graceful shutdown. cmd/kbserve is the
// daemon entry point.
package serve

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used cache safe for concurrent
// use. Reads promote the entry, so hot queries stay resident under churn.
// The zero value is unusable; construct with NewLRU.
type LRU[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns an empty cache holding at most capacity entries;
// capacity <= 0 disables caching (every Get misses, Put is a no-op).
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached value for key, promoting it to most recent.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *LRU[V]) Put(key string, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
}

// DeleteFunc removes every entry for which pred returns true and reports
// how many were removed. Used by live updates to invalidate exactly the
// queries whose posting lists an update touched.
func (c *LRU[V]) DeleteFunc(pred func(key string, val V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*lruEntry[V])
		if pred(ent.key, ent.val) {
			c.ll.Remove(el)
			delete(c.items, ent.key)
			n++
		}
		el = next
	}
	return n
}

// Len returns the number of cached entries.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots size and hit/miss counters. CacheStats is aliased
// from internal/api — it appears verbatim in the /v1/healthz reply.
func (c *LRU[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Size: c.ll.Len(), Capacity: c.cap, Hits: c.hits, Misses: c.misses}
}
