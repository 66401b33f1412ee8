package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUBasic(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get("a", 0); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put("a", 0, 1, nil)
	c.Put("b", 0, 2, nil)
	if v, ok := c.Get("a", 0); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 0, 3, nil)
	if _, ok := c.Get("b", 0); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a", 0); !ok || v != 1 {
		t.Fatalf("a should survive eviction, got %v, %v", v, ok)
	}
	if v, ok := c.Get("c", 0); !ok || v != 3 {
		t.Fatalf("Get(c) = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Size != 2 || st.Capacity != 2 || st.Epoch != 0 || st.Invalidated != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestLRURefresh(t *testing.T) {
	c := New[string](2)
	c.Put("a", 0, "old", []string{"x"})
	c.Put("b", 0, "x", nil)
	c.Put("a", 0, "new", []string{"y"}) // refresh value, words and recency
	c.Put("c", 0, "y", nil)             // evicts b, not a
	if v, ok := c.Get("a", 0); !ok || v != "new" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if _, ok := c.Get("b", 0); ok {
		t.Fatal("b should have been evicted")
	}
	// The refresh replaced a's tags: the old word no longer evicts it.
	if _, n := c.Invalidate([]string{"x"}, false); n != 0 {
		t.Fatalf("stale tag evicted %d entries", n)
	}
	if _, n := c.Invalidate([]string{"y"}, false); n != 1 {
		t.Fatalf("refreshed tag evicted %d entries, want 1", n)
	}
}

func TestLRUDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[int](capacity)
		if !c.Put("a", 0, 1, []string{"w"}) {
			t.Fatal("a disabled cache must accept current-epoch writes")
		}
		if _, ok := c.Get("a", 0); ok {
			t.Fatal("disabled cache must never hit")
		}
		if st := c.Stats(); st.Size != 0 || st.Capacity != capacity || st.Misses != 1 {
			t.Fatalf("Stats = %+v", st)
		}
		// The epoch fence still runs.
		if ep, _ := c.Invalidate(nil, true); ep != 1 || c.Put("a", 0, 1, nil) {
			t.Fatalf("disabled cache lost its fence (epoch %d)", ep)
		}
	}
}

// TestLRUConcurrent hammers one cache from many goroutines; run with
// -race. Correctness here is "no race, no panic, bounded size".
func TestLRUConcurrent(t *testing.T) {
	c := New[int](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%100)
				if v, ok := c.Get(key, 0); ok && v < 0 {
					t.Error("impossible cached value")
				}
				c.Put(key, 0, i, []string{key})
			}
		}(w)
	}
	wg.Wait()
	if n := c.Stats().Size; n > 32 {
		t.Fatalf("cache exceeded capacity: %d", n)
	}
}

// TestInvalidateWordPrecise: an update evicts exactly the entries tagged
// with a touched word, advances the epoch, and counts what it evicted.
func TestInvalidateWordPrecise(t *testing.T) {
	c := New[int](8)
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("k%d", i), 0, i, []string{"all", fmt.Sprintf("parity%d", i%2)})
	}
	ep, n := c.Invalidate([]string{"parity0", "unknown"}, false)
	if ep != 1 || n != 3 || c.Stats().Size != 3 {
		t.Fatalf("epoch %d, evicted %d, kept %d", ep, n, c.Stats().Size)
	}
	for i := 0; i < 6; i++ {
		_, ok := c.Get(fmt.Sprintf("k%d", i), 1)
		if ok != (i%2 == 1) {
			t.Fatalf("k%d: cached=%v", i, ok)
		}
	}
	// No touched words: nothing evicted, but the epoch still advances.
	if ep, n := c.Invalidate(nil, false); ep != 2 || n != 0 {
		t.Fatalf("empty pass: epoch %d, evicted %d", ep, n)
	}
	if st := c.Stats(); st.Invalidated != 3 || st.Epoch != 2 || st.Size != 3 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestInvalidateFlush: flush evicts every entry, word-disjoint or untagged.
func TestInvalidateFlush(t *testing.T) {
	c := New[int](8)
	c.Put("tagged", 0, 1, []string{"w"})
	c.Put("untagged", 0, 2, nil)
	if ep, n := c.Invalidate([]string{"other"}, true); ep != 1 || n != 2 {
		t.Fatalf("flush: epoch %d, evicted %d", ep, n)
	}
	if st := c.Stats(); st.Size != 0 || st.Invalidated != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	// The flushed cache is usable at the new epoch.
	c.Put("tagged", 1, 3, []string{"w"})
	if v, ok := c.Get("tagged", 1); !ok || v != 3 {
		t.Fatalf("Get after flush = %v, %v", v, ok)
	}
}

// TestEpochFence: a stale Get misses even when the entry survived, and a
// stale Put is refused and leaves nothing behind.
func TestEpochFence(t *testing.T) {
	c := New[int](8)
	c.Put("kept", 0, 1, []string{"untouched"})
	c.Invalidate([]string{"touched"}, false)
	if _, ok := c.Get("kept", 0); ok {
		t.Fatal("stale Get hit")
	}
	if v, ok := c.Get("kept", 1); !ok || v != 1 {
		t.Fatalf("current Get = %v, %v", v, ok)
	}
	if c.Put("late", 0, 2, nil) {
		t.Fatal("stale Put accepted")
	}
	if c.Put("kept", 0, 9, nil) {
		t.Fatal("stale refresh accepted")
	}
	if _, ok := c.Get("late", 1); ok {
		t.Fatal("stale Put left an entry behind")
	}
	if v, _ := c.Get("kept", 1); v != 1 {
		t.Fatalf("stale refresh overwrote the entry: %d", v)
	}
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestPutRacesInvalidate is the fence under -race: writers Put at epoch
// 0 while one goroutine invalidates every word they tag. Each write
// either lands before the pass (and is evicted by it) or is refused, so
// no epoch-0 entry is ever visible at epoch 1 — not during the race, not
// after it.
func TestPutRacesInvalidate(t *testing.T) {
	for _, flush := range []bool{false, true} {
		c := New[int](64)
		var writers sync.WaitGroup
		for w := 0; w < 4; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := 0; ; i++ {
					if !c.Put(fmt.Sprintf("w%d-%d", w, i%32), 0, i, []string{"w"}) {
						return
					}
				}
			}(w)
		}
		var invalidated atomic.Bool
		stop, readerDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(readerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !invalidated.Load() {
					continue
				}
				for w := 0; w < 4; w++ {
					for i := 0; i < 32; i++ {
						if _, ok := c.Get(fmt.Sprintf("w%d-%d", w, i), 1); ok {
							t.Errorf("flush=%v: epoch-0 entry w%d-%d visible at epoch 1 during the race", flush, w, i)
						}
					}
				}
			}
		}()
		c.Invalidate([]string{"w"}, flush)
		invalidated.Store(true)
		writers.Wait()
		close(stop)
		<-readerDone
		for w := 0; w < 4; w++ {
			for i := 0; i < 32; i++ {
				if _, ok := c.Get(fmt.Sprintf("w%d-%d", w, i), 1); ok {
					t.Fatalf("flush=%v: epoch-0 entry w%d-%d visible at epoch 1", flush, w, i)
				}
			}
		}
		if st := c.Stats(); st.Size != 0 || st.Epoch != 1 {
			t.Fatalf("flush=%v: Stats = %+v", flush, st)
		}
	}
}
