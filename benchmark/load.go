package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"sync"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
)

// digestSeed keys every answer digest of the process, so that digests of
// HTTP responses and of in-process answers compare.
var digestSeed = maphash.MakeSeed()

type digester struct{ h maphash.Hash }

func newDigester() *digester {
	d := &digester{}
	d.h.SetSeed(digestSeed)
	return d
}

// answer folds one ranked table into the digest: the pattern signature,
// the exact score bits (what %.17g would print), the row count and rows.
func (d *digester) answer(pattern string, score float64, numRows int, rows [][]string) {
	var n [16]byte
	binary.LittleEndian.PutUint64(n[:8], math.Float64bits(score))
	binary.LittleEndian.PutUint64(n[8:], uint64(numRows))
	d.h.Write(n[:])
	d.h.WriteString(pattern)
	for _, row := range rows {
		d.h.WriteByte(0xff)
		for _, cell := range row {
			d.h.WriteString(cell)
			d.h.WriteByte(0)
		}
	}
}

func digestAnswers(answers []kbtable.Answer) uint64 {
	d := newDigester()
	for _, a := range answers {
		d.answer(a.Pattern, a.Score, a.NumRows, a.Rows)
	}
	return d.h.Sum64()
}

func digestWire(answers []api.SearchAnswer) uint64 {
	d := newDigester()
	for _, a := range answers {
		d.answer(a.Pattern, a.Score, a.NumRows, a.Rows)
	}
	return d.h.Sum64()
}

// sample is one completed operation as a client saw it.
type sample struct {
	kind    opKind
	query   int32
	latency time.Duration
	cached  bool
	dropped int    // updates: cached results the server invalidated
	bad     string // non-empty: the operation failed or answered wrongly
}

// loadClient is one closed-loop client: it sends its next operation only
// after the previous one completed.
type loadClient struct {
	cl      *client.Client
	queries []string
	ops     []op
	// want[i] is the oracle digest of queries[i]; queries beyond it are
	// checked for agreeing with the first answer seen (nil on mixed_rw,
	// whose answers change with every update).
	want    []uint64
	first   *firstSeen
	tr      *tracer // non-nil: label each request's spans
	added   []int64 // entities this client's opAdd operations created
	samples []sample
}

// firstSeen records, per query, the digest of the first response, shared
// by all clients of a run.
type firstSeen struct {
	mu sync.Mutex
	d  map[int32]uint64
}

func (f *firstSeen) agree(q int32, d uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if have, ok := f.d[q]; ok {
		return have == d
	}
	f.d[q] = d
	return true
}

func newHTTPClient(tr *tracer) *http.Client {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	if tr == nil {
		return &http.Client{Transport: t, Timeout: 30 * time.Second}
	}
	return &http.Client{Transport: &tracedTransport{base: t, tr: tr}, Timeout: 30 * time.Second}
}

// run replays the client's operations from the start of its sequence
// (wrapping around) until maxOps are done or the deadline passes. Every
// answer is checked after its latency was taken.
func (c *loadClient) run(ctx context.Context, deadline time.Time, maxOps int) {
	for i := 0; i < maxOps && time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		o := c.ops[i%len(c.ops)]
		s := sample{kind: o.kind, query: o.query}
		t0 := time.Now()
		endCall := c.traceCall(o.kind)
		if o.kind == opSearch {
			resp, err := c.cl.Search(ctx, &api.SearchRequest{Query: c.queries[o.query]})
			endCall()
			s.latency = time.Since(t0)
			s.bad = c.checkSearch(o.query, resp, err)
			s.cached = resp != nil && resp.Cached
		} else {
			u := o.update(c.added)
			resp, err := c.cl.Update(ctx, &api.UpdateRequest{Ops: u.Ops})
			endCall()
			s.latency = time.Since(t0)
			switch {
			case err != nil:
				s.bad = "update: " + err.Error()
			case o.kind == opAdd && len(resp.NewEntities) != 1:
				s.bad = fmt.Sprintf("update created %d entities, want 1", len(resp.NewEntities))
			case o.kind == opAdd:
				c.added = append(c.added, resp.NewEntities[0])
			}
			if resp != nil {
				s.dropped = resp.InvalidatedCache
			}
		}
		if c.tr != nil {
			c.tr.requestDone(s.latency)
		}
		c.samples = append(c.samples, s)
	}
}

// traceCall opens the root span of the client's next request, when the
// pass is traced, and returns what closes it. The span lies inside the
// interval the latency is taken over, so the spans of a request never
// outlast its latency.
func (c *loadClient) traceCall(kind opKind) func() {
	if c.tr == nil {
		return func() {}
	}
	name := "client.call"
	if kind != opSearch {
		name += ".update"
	}
	c.tr.nextRequest()
	id := c.tr.begin(name, roleCall, "")
	return func() { c.tr.end(id, 0) }
}

func (c *loadClient) checkSearch(q int32, resp *api.SearchResponse, err error) string {
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) {
			return fmt.Sprintf("search: http %d %s", ae.Status, ae.Code)
		}
		return "search: " + err.Error()
	}
	if resp.Query != c.queries[q] || len(resp.Answers) > searchK {
		return fmt.Sprintf("search %q: answered %q with %d tables", c.queries[q], resp.Query, len(resp.Answers))
	}
	for i := 1; i < len(resp.Answers); i++ {
		if resp.Answers[i].Score > resp.Answers[i-1].Score {
			return fmt.Sprintf("search %q: answers not ranked by score", c.queries[q])
		}
	}
	if c.first == nil {
		return ""
	}
	d := digestWire(resp.Answers)
	if int(q) < len(c.want) {
		if d != c.want[q] {
			return fmt.Sprintf("search %q: answer differs from the oracle's", c.queries[q])
		}
		return ""
	}
	if !c.first.agree(q, d) {
		return fmt.Sprintf("search %q: answer differs from an earlier answer to the same query", c.queries[q])
	}
	return ""
}

// runClients runs every client to the deadline and returns the wall time
// from the common start to the last completion.
func runClients(ctx context.Context, cs []*loadClient, measure time.Duration, maxOps int) time.Duration {
	started := time.Now()
	deadline := started.Add(measure)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			c.run(ctx, deadline, maxOps)
		}(c)
	}
	wg.Wait()
	return time.Since(started)
}
