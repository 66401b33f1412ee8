package search

import (
	"container/list"
	"strings"
	"sync"
)

// PlanCache is an epoch-tagged LRU of merged prepare-stage statistics,
// keyed on the normalized query words. Repeat query shapes skip the
// planner probe (a full needCost prepare — on a sharded engine, one per
// shard): the cached PlanStats feed ChoosePlan directly, which is a pure
// function of them, so the resolved Plan is re-derived per request.
// Cached statistics are Options-independent (they depend only on the
// word set and the index contents), so no option enters the key.
//
// Invalidation is word-precise and epoch-fenced. The facade owns one
// PlanCache per engine chain; ApplyUpdate calls Invalidate with the
// update's touched words (the exact set of canonical words whose posting
// lists changed), which bumps the cache epoch and evicts every entry
// depending on a touched word. Structural PageRank moves flush the whole
// cache. Each engine snapshot remembers the epoch it was created at:
// Get and Put from a superseded snapshot (stale epoch) are refused, so a
// slow request racing an update can never install pre-update statistics
// into the post-update cache.
type PlanCache struct {
	mu          sync.Mutex
	cap         int
	epoch       uint64
	ll          *list.List
	items       map[string]*list.Element
	hits        uint64
	misses      uint64
	invalidated uint64
}

// planCacheEntry is one cached shape: its merged statistics plus the
// sorted canonical words it depends on (the invalidation tags).
type planCacheEntry struct {
	key   string
	stats PlanStats
	words []string
}

// PlanCacheStats is a point-in-time snapshot of cache effectiveness.
type PlanCacheStats struct {
	Size        int
	Capacity    int
	Epoch       uint64
	Hits        uint64
	Misses      uint64
	Invalidated uint64
}

// DefaultPlanCacheSize bounds the facade's per-engine-chain plan cache.
const DefaultPlanCacheSize = 512

// NewPlanCache returns an empty cache holding at most capacity entries
// (a non-positive capacity gets DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// PlanCacheKey derives the cache key for a query's resolved canonical
// words (sorted and deduplicated, as Engine.QueryWords returns them —
// PlanStats are set-valued, so word order cannot matter). The separator
// cannot occur inside a token, so the encoding is injective.
func PlanCacheKey(words []string) string { return strings.Join(words, "\x1f") }

// Epoch returns the cache's current epoch. An engine snapshot captures
// it at creation and passes it back on every Get/Put.
func (c *PlanCache) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Get returns the cached statistics for key, refusing snapshots whose
// epoch is stale (their view of the index predates an invalidation).
func (c *PlanCache) Get(key string, epoch uint64) (PlanStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		c.misses++
		return PlanStats{}, false
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return PlanStats{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*planCacheEntry).stats, true
}

// Put caches stats under key, tagged with the canonical words the entry
// depends on. A Put from a stale epoch is dropped: the statistics were
// computed against a superseded snapshot.
func (c *PlanCache) Put(key string, epoch uint64, stats PlanStats, words []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*planCacheEntry)
		ent.stats = stats
		ent.words = words
		return
	}
	el := c.ll.PushFront(&planCacheEntry{key: key, stats: stats, words: words})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*planCacheEntry).key)
	}
}

// Invalidate bumps the cache epoch and evicts every entry that depends
// on a touched word (or all entries when flush is set — structural
// PageRank refreshes move scores everywhere). It returns the new epoch,
// which the successor engine snapshot records as its own. Entries whose
// words are untouched survive: their posting lists — and therefore their
// statistics — are unchanged by the update.
func (c *PlanCache) Invalidate(touched []string, flush bool) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	if flush {
		c.invalidated += uint64(c.ll.Len())
		c.ll.Init()
		c.items = make(map[string]*list.Element, c.cap)
		return c.epoch
	}
	if len(touched) == 0 {
		return c.epoch
	}
	tset := make(map[string]struct{}, len(touched))
	for _, w := range touched {
		tset[w] = struct{}{}
	}
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*planCacheEntry)
		for _, w := range ent.words {
			if _, hit := tset[w]; hit {
				c.ll.Remove(el)
				delete(c.items, ent.key)
				c.invalidated++
				break
			}
		}
		el = next
	}
	return c.epoch
}

// Stats snapshots cache effectiveness counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Size:        c.ll.Len(),
		Capacity:    c.cap,
		Epoch:       c.epoch,
		Hits:        c.hits,
		Misses:      c.misses,
		Invalidated: c.invalidated,
	}
}
