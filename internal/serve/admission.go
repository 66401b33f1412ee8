package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Admission control: a bounded concurrency gate in front of /v1/search.
// At most MaxConcurrent searches execute at once; the next MaxQueue
// wait in priority order (high before normal before low, FIFO within a
// class); everything beyond that is shed immediately with 429 so
// overload degrades into fast, honest rejections instead of a pile-up
// of slow timeouts. A waiter that outlives QueueTimeout (or its own
// request context) is also shed.

// Request priorities, ordered: lower value is served first.
const (
	prioHigh   = 0
	prioNormal = 1
	prioLow    = 2
	numPrios   = 3
)

// parsePriority maps the X-KB-Priority header / request field onto a
// priority class. Empty means normal.
func parsePriority(s string) (int, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "normal":
		return prioNormal, nil
	case "high":
		return prioHigh, nil
	case "low":
		return prioLow, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want high, normal or low)", s)
}

// errShedFull / errShedTimeout report why admission failed; both map to
// 429 with a Retry-After.
var (
	errShedFull    = errors.New("serve: queue full")
	errShedTimeout = errors.New("serve: queue wait timed out")
)

// waiter is one queued request; ready is closed (under gate.mu) when a
// slot is transferred to it.
type waiter struct {
	ready chan struct{}
}

// gate is the admission-control gate.
type gate struct {
	mu     sync.Mutex
	cap    int // concurrent execution slots
	maxQ   int // waiters across all classes before shedding
	inUse  int
	queues [numPrios][]*waiter
	queued int

	// Shed counters (for /v1/healthz and /v1/metrics).
	shedFull    atomic.Uint64
	shedTimeout atomic.Uint64
}

func newGate(capacity, maxQueue int) *gate {
	return &gate{cap: capacity, maxQ: maxQueue}
}

// acquire blocks until an execution slot is available, the queue is
// full (errShedFull), the wait exceeds timeout (errShedTimeout), or ctx
// ends (its error). A nil error means the caller holds a slot and must
// release() it.
func (g *gate) acquire(ctx context.Context, prio int, timeout time.Duration) error {
	g.mu.Lock()
	if g.inUse < g.cap {
		g.inUse++
		g.mu.Unlock()
		return nil
	}
	if g.queued >= g.maxQ {
		g.mu.Unlock()
		g.shedFull.Add(1)
		return errShedFull
	}
	w := &waiter{ready: make(chan struct{})}
	g.queues[prio] = append(g.queues[prio], w)
	g.queued++
	g.mu.Unlock()

	var timer *time.Timer
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		timeoutC = timer.C
		defer timer.Stop()
	}
	select {
	case <-w.ready:
		return nil // slot transferred by release()
	case <-timeoutC:
		if g.abandon(prio, w) {
			g.shedTimeout.Add(1)
			return errShedTimeout
		}
		return nil // lost the race: a slot was granted, keep it
	case <-ctx.Done():
		if g.abandon(prio, w) {
			return ctx.Err()
		}
		return nil
	}
}

// abandon removes w from its queue; false means a grant won the race
// (w.ready already closed) and the caller holds a slot after all.
func (g *gate) abandon(prio int, w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-w.ready:
		return false
	default:
	}
	q := g.queues[prio]
	for i, cand := range q {
		if cand == w {
			g.queues[prio] = append(q[:i], q[i+1:]...)
			g.queued--
			return true
		}
	}
	// Not in the queue and not granted: unreachable, but claim shed to
	// fail safe (a slot is never leaked by abandoning).
	return true
}

// release frees the caller's slot, transferring it to the
// highest-priority waiter if one is queued.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for p := 0; p < numPrios; p++ {
		if len(g.queues[p]) > 0 {
			w := g.queues[p][0]
			g.queues[p] = g.queues[p][1:]
			g.queued--
			close(w.ready) // slot moves to w; inUse is unchanged
			return
		}
	}
	g.inUse--
}

// depth returns (executing, queued) for monitoring.
func (g *gate) depth() (int, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inUse, g.queued
}
