package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"kbtable"
)

// The traced run records spans from outside the program: around the
// client's call and its HTTP round trip, around the server's handler,
// around the calls the server makes into the engine, and around each
// cluster leg. Spans
// inside the program are a later change (ROADMAP item 4).
//
// A traced pass has one serial client, so at most one request is in
// flight and a span's request is simply the current one. Only a cluster
// request has concurrent spans (its two legs).

// span is one timed interval at a layer boundary.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: the request's root
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer started
	End     int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"` // handlers: response body size
}

type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	open    map[string]int // role of a span in its request -> open span
	request int
	e2e     []time.Duration // per request, the latency its client measured
	// Over the traced requests that executed a search (no cache hit):
	executions, chosePE int
	boundPruned         int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[string]int{}}
}

func (t *tracer) nextRequest() {
	t.mu.Lock()
	t.request++
	t.open = map[string]int{}
	t.mu.Unlock()
}

func (t *tracer) requestDone(latency time.Duration) {
	t.mu.Lock()
	t.e2e = append(t.e2e, latency)
	t.mu.Unlock()
}

// begin opens a span under the open span whose role is parentRole, and
// registers it under role for its own children to find.
func (t *tracer) begin(name, role, parentRole string) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.open[parentRole]
	if !ok {
		parent = -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: t.request, Name: name, Start: now, End: -1})
	t.open[role] = id
	return id
}

func (t *tracer) end(id int, bytes int64) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End, t.spans[id].Bytes = now, bytes
	for role, open := range t.open {
		if open == id {
			delete(t.open, role)
		}
	}
}

// stages synthesises the executor's stage spans under an engine.call span
// from the PlanInfo the call returned, laid end to end from its start.
func (t *tracer) stages(id int, pi kbtable.PlanInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.spans[id]
	if parent.Request == 0 {
		return // the warm-up pass, before the first traced request
	}
	at := parent.Start
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"search.prepare", pi.Prepare}, {"search.enumerate", pi.Enumerate},
		{"search.aggregate", pi.Aggregate}, {"search.rank", pi.Rank},
	} {
		end := at + int64(st.d)
		if end > parent.End {
			end = parent.End
		}
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: id, Request: parent.Request, Name: st.name, Start: at, End: end})
		at = end
	}
	t.executions++
	if pi.Algorithm == kbtable.PatternEnum {
		t.chosePE++
	}
	t.boundPruned += pi.BoundPruned
}

// Roles name a span's place in its request, so that a child finds its
// parent: the client's call (the root: its self time is the client's JSON
// encoding and decoding), the HTTP round trip under it, the server's
// handler, the engine call under that, leg i under the engine call, and
// node i's handler under leg i.
const (
	roleCall      = "c"
	roleRoundTrip = "rt"
	roleHandler   = "h"
	roleEngine    = "e"
)

func roleLeg(shard int) string        { return fmt.Sprintf("leg%d", shard) }
func roleNodeHandler(node int) string { return fmt.Sprintf("nh%d", node) }

// tracedTransport records client.roundtrip: from sending the request to
// reading the last byte of the response body.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, ok := spanName("client.roundtrip", req.URL.Path)
	if !ok {
		return t.base.RoundTrip(req)
	}
	id := t.tr.begin(name, roleRoundTrip, roleCall)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id, 0)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: func() { t.tr.end(id, 0) }}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// spanName names the span of a request by its endpoint; requests to other
// endpoints (health checks) are not traced.
func spanName(prefix, path string) (string, bool) {
	switch {
	case strings.HasSuffix(path, "/search"):
		return prefix, true
	case strings.HasSuffix(path, "/update"):
		return prefix + ".update", true
	case strings.HasSuffix(path, "/cluster/probe"):
		return prefix + ".probe", true
	case strings.HasSuffix(path, "/cluster/scatter"):
		return prefix + ".scatter", true
	}
	return "", false
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// traceHandler records a handler span around next.
func traceHandler(next http.Handler, tr *tracer, prefix, role, parentRole string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := spanName(prefix, r.URL.Path)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.begin(name, role, parentRole)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		tr.end(id, cw.n)
	})
}

// tracedEngine is the engine handed to serve.Config.Engine in a traced
// pass: it embeds the real engine, so the server finds every capability
// it looks for, and records a span around each call the server makes.
// The engine an update publishes is a plain *kbtable.Engine again, so
// only read-only servers keep their engine spans (an owner node replays
// the WAL tail when it starts, so it has none either: its handler span
// covers the leg's engine work).
type tracedEngine struct {
	*kbtable.Engine
	tr *tracer
}

func (e tracedEngine) Plan(ctx context.Context, q string, o kbtable.SearchOptions) (kbtable.PlanInfo, error) {
	id := e.tr.begin("engine.plan", roleEngine, roleHandler)
	defer e.tr.end(id, 0)
	return e.Engine.Plan(ctx, q, o)
}

func (e tracedEngine) SearchPlan(ctx context.Context, q string, o kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error) {
	id := e.tr.begin("engine.call", roleEngine, roleHandler)
	answers, pi, err := e.Engine.SearchPlan(ctx, q, o)
	e.tr.end(id, 0)
	if err == nil {
		e.tr.stages(id, pi)
	}
	return answers, pi, err
}

func (e tracedEngine) PlanDistributed(ctx context.Context, x kbtable.ShardExecutor, q string, o kbtable.SearchOptions) (kbtable.PlanInfo, error) {
	id := e.tr.begin("engine.plan", roleEngine, roleHandler)
	defer e.tr.end(id, 0)
	return e.Engine.PlanDistributed(ctx, x, q, o)
}

func (e tracedEngine) SearchDistributed(ctx context.Context, x kbtable.ShardExecutor, q string, o kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error) {
	id := e.tr.begin("engine.call", roleEngine, roleHandler)
	defer e.tr.end(id, 0)
	return e.Engine.SearchDistributed(ctx, x, q, o)
}

// tracedExecutor records cluster.leg spans around the router's legs.
type tracedExecutor struct {
	next kbtable.ShardExecutor
	tr   *tracer
}

func (x tracedExecutor) ProbeShard(ctx context.Context, si int, q string, o kbtable.SearchOptions) (kbtable.ShardPlanStats, error) {
	id := x.tr.begin("cluster.leg.probe", roleLeg(si), roleEngine)
	defer x.tr.end(id, 0)
	return x.next.ProbeShard(ctx, si, q, o)
}

func (x tracedExecutor) ScatterShard(ctx context.Context, si int, a kbtable.Algorithm, q string, o kbtable.SearchOptions) (*kbtable.ShardPartial, error) {
	id := x.tr.begin("cluster.leg.scatter", roleLeg(si), roleEngine)
	defer x.tr.end(id, 0)
	return x.next.ScatterShard(ctx, si, a, q, o)
}

// request is the spans of one request with their self times.
type request struct {
	spans []span
	self  []int64       // parallel to spans
	e2e   time.Duration // what the client measured
}

// root returns the request's root span (the client's call).
func (r *request) root() *span {
	for i := range r.spans {
		if r.spans[i].Parent == -1 {
			return &r.spans[i]
		}
	}
	return nil
}

// unaccounted is the part of the latency the client measured that no span
// covers.
func (r *request) unaccounted() int64 {
	if root := r.root(); root != nil {
		return int64(r.e2e) - (root.End - root.Start)
	}
	return int64(r.e2e)
}

// requests groups the finished spans by request and computes self times.
func (t *tracer) requests() []request {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]request, t.request)
	for _, s := range t.spans {
		if s.Request >= 1 && s.Request <= len(out) && s.End >= 0 {
			r := &out[s.Request-1]
			r.spans = append(r.spans, s)
		}
	}
	for i := range out {
		if i < len(t.e2e) {
			out[i].e2e = t.e2e[i]
		}
		out[i].self = selfTimes(out[i].spans)
	}
	return out
}

// selfTimes splits the root span's interval among the spans of one
// request: every instant belongs to the deepest span open at it, and
// among concurrent spans of equal depth (a cluster request's two legs)
// to the one that ends last, because the slowest leg is the one the
// request waits for. A span's self time is therefore its duration minus
// the part its children cover, and the self times add up to the root's
// duration exactly.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	depth := make([]int, len(spans))
	for i := range spans {
		for p := spans[i].Parent; p != -1; {
			j, ok := byID[p]
			if !ok {
				break
			}
			depth[i]++
			p = spans[j].Parent
		}
	}
	var cuts []int64
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		if a == b {
			continue
		}
		best := -1
		for i, s := range spans {
			if s.Start > a || s.End < b {
				continue
			}
			if best < 0 || depth[i] > depth[best] || depth[i] == depth[best] && s.End > spans[best].End {
				best = i
			}
		}
		if best >= 0 {
			self[best] += b - a
		}
	}
	return self
}

// share is one row of the per-layer self-time table.
type share struct {
	Span   string  `json:"span"`
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_self_us"`
	Share  float64 `json:"share"`
}

// shares sums self time by span name over the search requests and adds
// the unaccounted remainder as its own row; the shares add up to 1.
func shares(reqs []request) []share {
	sums, counts := map[string]int64{}, map[string]int{}
	var total int64
	for _, r := range reqs {
		root := r.root()
		if root == nil || root.Name != "client.call" {
			continue
		}
		for i, s := range r.spans {
			sums[s.Name] += r.self[i]
			counts[s.Name]++
		}
		sums["(unaccounted)"] += r.unaccounted()
		counts["(unaccounted)"]++
		total += int64(r.e2e)
	}
	out := make([]share, 0, len(sums))
	for name, sum := range sums {
		out = append(out, share{Span: name, Count: counts[name],
			MeanUS: ratio(float64(sum)/1e3, float64(counts[name])), Share: ratio(float64(sum), float64(total))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Span < out[j].Span
	})
	return out
}

func printShares(w io.Writer, workload string, sh []share) {
	fmt.Fprintf(w, "\nself-time share by span, %s (traced search requests)\n", workload)
	fmt.Fprintf(w, "  %-28s %8s %14s %8s\n", "span", "count", "mean self us", "share")
	for _, s := range sh {
		fmt.Fprintf(w, "  %-28s %8d %14.1f %7.1f%%\n", s.Span, s.Count, s.MeanUS, 100*s.Share)
	}
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
