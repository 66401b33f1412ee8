package serve

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
)

// Read coalescing: identical in-flight searches — same normalized cache
// key AND same pinned epoch — join one execution instead of each paying
// for it. The epoch is part of the flight key, so a request that loaded
// epoch N+1 never receives bytes computed on epoch N: coalescing
// preserves exactly the freshness guarantee an uncached execution gives.
//
// This is a minimal singleflight. The leader (first arrival) runs the
// search; followers block until the leader resolves and share its
// response. The flight is removed from the table BEFORE its done channel
// closes, so a request arriving after completion always starts a fresh
// flight — results are never served across epochs or re-served stale.

// flight is one in-progress shared execution.
type flight struct {
	done chan struct{}
	ent  *cacheEntry // set before done closes; nil on error
	err  error
}

// flightGroup deduplicates concurrent executions by key.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// do returns the shared result for key, executing fn exactly once per
// key among concurrent callers. The second return reports whether this
// caller was a follower (joined an existing flight). A follower whose
// own ctx expires stops waiting and returns the ctx error; the flight
// itself continues for the remaining callers. A panicking fn fails the
// flight with an error like any other, so the key is always released.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*cacheEntry, error)) (*cacheEntry, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.ent, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.ent, f.err = run(fn)
	g.mu.Lock()
	delete(g.m, key) // remove before close: later arrivals start fresh
	g.mu.Unlock()
	close(f.done)
	return f.ent, false, f.err
}

// run calls fn, turning a panic into its error. The stack goes to the
// log, as net/http logs a handler's panic; the client sees a 500.
func run(fn func() (*cacheEntry, error)) (ent *cacheEntry, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: search panicked: %v\n%s", p, debug.Stack())
			ent, err = nil, fmt.Errorf("search panicked: %v", p)
		}
	}()
	return fn()
}
