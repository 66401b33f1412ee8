// Package cache is the one reuse policy shared by everything that keeps
// an answer (or the state behind one) across live updates: the facade's
// plan cache, kbserve's result cache and its prepared-handle registry.
//
// A Cache is a fixed-capacity LRU whose entries carry the canonical words
// they depend on, fenced by an epoch. An update calls Invalidate once with
// the words whose posting lists it changed: entries depending on a touched
// word are evicted (all entries when flush is set — a PageRank refresh
// moves scores everywhere) and the epoch advances. Readers and writers
// pass the epoch of the snapshot they work on; Get and Put from a
// superseded epoch are refused, so a slow request racing an update can
// never install, or be served, pre-update state. The cache's own mutex
// orders every Put against the invalidation pass: an entry written at
// epoch N either lands before the N+1 pass (which judges it) or is
// refused.
package cache

import (
	"container/list"
	"sync"
)

// Cache is an epoch-fenced, word-tagged LRU safe for concurrent use.
// Reads promote the entry, so hot keys stay resident under churn.
type Cache[V any] struct {
	mu          sync.Mutex
	cap         int
	epoch       uint64
	ll          *list.List // front = most recently used
	items       map[string]*list.Element
	hits        uint64
	misses      uint64
	invalidated uint64
}

// entry is one cached value plus the canonical words it depends on (its
// invalidation tags).
type entry[V any] struct {
	key   string
	val   V
	words []string
}

// Stats is a point-in-time snapshot of a cache. Invalidated counts
// entries evicted by Invalidate; capacity evictions are not counted.
type Stats struct {
	Size        int
	Capacity    int
	Epoch       uint64
	Hits        uint64
	Misses      uint64
	Invalidated uint64
}

// New returns an empty cache at epoch 0 holding at most capacity entries;
// capacity <= 0 disables it (every Get misses, Put stores nothing).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value cached under key, promoting it to most recent. A
// read from a stale epoch misses: its snapshot predates an invalidation.
func (c *Cache[V]) Get(key string, epoch uint64) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && epoch == c.epoch {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes key, tagged with the words the value depends
// on, evicting the least recently used entry when the cache is full. A
// write from a stale epoch is refused and Put returns false: the value was
// computed against a superseded snapshot. A disabled cache accepts every
// current-epoch write and stores nothing.
func (c *Cache[V]) Put(key string, epoch uint64, v V, words []string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return false
	}
	if c.cap <= 0 {
		return true
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*entry[V])
		ent.val, ent.words = v, words
		return true
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v, words: words})
	return true
}

// Invalidate advances the epoch and evicts every entry that depends on a
// touched word, or every entry when flush is set. It returns the new
// epoch, which the successor snapshot passes to Get and Put, and the
// number of entries evicted. Entries whose words are untouched survive:
// the update provably left them unchanged.
func (c *Cache[V]) Invalidate(touched []string, flush bool) (epoch uint64, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	if flush {
		evicted = c.ll.Len()
		c.ll.Init()
		clear(c.items)
	} else if len(touched) > 0 {
		tset := make(map[string]struct{}, len(touched))
		for _, w := range touched {
			tset[w] = struct{}{}
		}
		for el := c.ll.Front(); el != nil; {
			next := el.Next()
			ent := el.Value.(*entry[V])
			for _, w := range ent.words {
				if _, hit := tset[w]; hit {
					c.ll.Remove(el)
					delete(c.items, ent.key)
					evicted++
					break
				}
			}
			el = next
		}
	}
	c.invalidated += uint64(evicted)
	return c.epoch, evicted
}

// Stats snapshots the cache's size, epoch and counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Size:        c.ll.Len(),
		Capacity:    c.cap,
		Epoch:       c.epoch,
		Hits:        c.hits,
		Misses:      c.misses,
		Invalidated: c.invalidated,
	}
}
