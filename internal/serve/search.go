package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// cacheEntry is one computed result, shared read-only by the result
// cache, the request that computed it and every request it answers. It
// holds the answers encoded once, as the JSON array every reply splices
// in, and not the answer structs: a cached table costs its bytes alone.
// head carries the reply fields the entry fixes: query, k, d, epoch,
// elapsed_ms, and the algorithm and plan the engine ran it with — for an
// auto entry, the resolved algorithm and the planner's decision.
type cacheEntry struct {
	head    api.SearchResponse
	answers []byte
}

// write answers one request from the entry: a freshly encoded head, the
// entry's cached answer bytes as they are, then the closing SearchTail —
// three Writes, no reply-sized buffer and no copy of the answers. Every
// reply from one entry reports the plan it was computed with, stage
// timings included.
func (e *cacheEntry) write(w http.ResponseWriter, cached bool) {
	resp := e.head
	resp.Cached = cached
	head, err := api.SearchHead(&resp)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(head)
	_, _ = w.Write(e.answers)
	_, _ = io.WriteString(w, api.SearchTail)
}

// maxPooledAnswers caps the encoding scratch kept for reuse: a scratch
// grown past it by an outsized result is dropped, not held for good.
const maxPooledAnswers = 1 << 20

// answerScratch holds the buffers misses encode their answers into.
var answerScratch = sync.Pool{New: func() any { return new([]byte) }}

// encodeAnswers converts engine answers to the wire form and encodes
// them, once per computed result: into a pooled scratch, copied exactly
// once into a slice of the encoding's size.
func encodeAnswers(answers []kbtable.Answer) ([]byte, error) {
	wire := make([]api.SearchAnswer, len(answers))
	for i, a := range answers {
		wire[i] = api.SearchAnswer(a)
	}
	scratch := answerScratch.Get().(*[]byte)
	b, err := api.AppendAnswers((*scratch)[:0], wire)
	out := bytes.Clone(b)
	if cap(b) <= maxPooledAnswers {
		*scratch = b
		answerScratch.Put(scratch)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// normalizeRequest canonicalizes a request before it reaches the cache
// key: the query goes through the engine's own tokenization (lowercased
// letter/digit runs joined by single spaces, keyword order preserved — it
// determines answer column order), the K/D/MaxRows/Algorithm defaults
// are applied and the algorithm is spelled by its canonical wire name, so
// logically identical requests — {"k":0} and {"k":10}, "  Foo,  Bar" and
// "foo bar", "pe" and "patternenum" — occupy ONE cache entry. Validation
// that depends on the normalized values (limits, the engine's d) happens
// here too; an error is the client's (400).
func (s *Server) normalizeRequest(req *api.SearchRequest) (kbtable.Algorithm, error) {
	req.Query = kbtable.NormalizeQuery(req.Query)
	if req.Query == "" {
		return 0, errors.New("query must not be empty")
	}
	if req.K <= 0 {
		req.K = 10
	}
	if req.K > s.cfg.MaxK {
		return 0, fmt.Errorf("k=%d exceeds the maximum %d", req.K, s.cfg.MaxK)
	}
	if req.D == 0 {
		req.D = s.cfg.D
	}
	if req.D != s.cfg.D {
		return 0, fmt.Errorf("this engine is indexed for d=%d, not d=%d", s.cfg.D, req.D)
	}
	if req.MaxRows <= 0 {
		req.MaxRows = s.cfg.MaxRows
	}
	if req.Algorithm == "" {
		req.Algorithm = s.cfg.DefaultAlgorithm
	}
	algo, err := api.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return 0, err
	}
	req.Algorithm = api.AlgorithmName(algo)
	return algo, nil
}

// cacheKey identifies one (query, options) result in the LRU. algo is
// the *requested* algorithm's canonical name: an "auto" request and an
// explicit one never share an entry, so a hit needs no planner work —
// the engine resolves auto once, on the miss that computes the entry.
//
// The variable-length fields are length-prefixed, making the encoding
// injective: a query containing the field separator (or any future algo
// name) can never re-parse as a different (query, algo) split the way a
// plain join would ("a|b"+"c" vs "a"+"b|c"). The numeric tail needs no
// prefixes — "|%d" never contains another separator.
func cacheKey(query, algo string, k, d, maxRows int) string {
	return fmt.Sprintf("%d:%s|%d:%s|%d|%d|%d", len(query), query, len(algo), algo, k, d, maxRows)
}

// admit is admission control: it resolves the request's priority class
// (the X-KB-Priority header wins over the body field) and holds an
// execution slot until the returned release is called. Under overload
// the wait is bounded and the queue finite, so excess load turns into
// prompt 429s the client can back off on. ok is false after an error
// envelope was written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, bodyPriority string) (release func(), ok bool) {
	name := r.Header.Get("X-KB-Priority")
	if name == "" {
		name = bodyPriority
	}
	prio, err := parsePriority(name)
	if err != nil {
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return nil, false
	}
	if s.gate == nil {
		return func() {}, true
	}
	if err := s.gate.acquire(r.Context(), prio, s.cfg.QueueTimeout); err != nil {
		if errors.Is(err, errShedFull) || errors.Is(err, errShedTimeout) {
			writeShed(w, err.Error())
		} else {
			WriteError(w, http.StatusServiceUnavailable, api.CodeCanceled, "request canceled while queued")
		}
		return nil, false
	}
	return s.gate.release, true
}

// search runs one query on the snapshot st pins: on the engine itself,
// or — in coordinator mode — scattered through Config.Distributor to the
// owner nodes and gathered on the engine, bit-identical to SearchPlan by
// the Theorem-5 fold, with failed legs re-executed locally inside the
// engine. Either way an auto query is resolved by the engine, from one
// probe. Scattered calls carry st's WAL position on their context so the
// cluster transport can demand owner nodes at exactly that position
// (api.SeqFrom on the other side), keeping every leg on the snapshot the
// request is answering from. A panicking search fails like any other
// error: the stack goes to the log, as net/http logs a handler's panic,
// and the client reads 500 internal.
func (s *Server) search(ctx context.Context, st *engineState, query string, o kbtable.SearchOptions) (answers []kbtable.Answer, pi kbtable.PlanInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: search panicked: %v\n%s", p, debug.Stack())
			answers, pi, err = nil, kbtable.PlanInfo{}, fmt.Errorf("search panicked: %v", p)
		}
	}()
	if s.cfg.Distributor == nil {
		return st.eng.SearchPlan(ctx, query, o)
	}
	return st.eng.SearchDistributed(api.WithSeq(ctx, st.eng.Seq()), s.cfg.Distributor, query, o)
}

// handleSearch answers one search on one path: admission, the result
// cache keyed by the requested algorithm, then on a miss the engine, on
// the request's own context bounded by Config.Timeout, so a client that
// goes away cancels its own search. An auto request's reply names the
// algorithm its entry resolved to, and the planner counters count that
// choice on hits and misses alike.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req api.SearchRequest
	if !DecodePost(w, r, 1<<20, &req) {
		return
	}
	algo, err := s.normalizeRequest(&req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	release, ok := s.admit(w, r, req.Priority)
	if !ok {
		return
	}
	defer release()
	if algo == kbtable.Auto {
		s.autoRequests.Add(1)
	}

	// Pin this request to the currently published snapshot: even if an
	// update lands mid-query, we keep searching (and report) this epoch.
	st := s.cur.Load()
	key := cacheKey(req.Query, req.Algorithm, req.K, req.D, req.MaxRows)
	if hit, ok := s.cache.Get(key, st.epoch); ok {
		s.countChoice(algo, hit)
		hit.write(w, true)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	t0 := time.Now()
	answers, pi, err := s.search(ctx, st, req.Query, searchOptions(&req, algo))
	if err != nil {
		writeSearchError(w, err)
		return
	}
	elapsed := time.Since(t0)
	s.boundPruned.Add(pi.BoundPruned)
	encoded, err := encodeAnswers(answers)
	if err != nil {
		writeSearchError(w, err)
		return
	}
	ent := &cacheEntry{
		head: api.SearchResponse{
			Query:     req.Query,
			K:         req.K,
			Algorithm: api.AlgorithmName(pi.Algorithm),
			D:         req.D,
			Epoch:     st.epoch,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			Plan:      api.PlanOf(pi),
		},
		answers: encoded,
	}
	// Tagged with the query's canonical words for word-precise
	// invalidation; refused if an update published since st.
	s.cache.Put(key, st.epoch, ent, st.eng.QueryWords(req.Query))
	s.countChoice(algo, ent)
	ent.write(w, false)
}

// countChoice counts, for an auto request, the algorithm the entry
// answering it resolved to.
func (s *Server) countChoice(algo kbtable.Algorithm, e *cacheEntry) {
	switch {
	case algo != kbtable.Auto:
	case e.head.Algorithm == api.AlgorithmName(kbtable.LinearEnum):
		s.autoChoseLE.Add(1)
	default:
		s.autoChosePE.Add(1)
	}
}

// searchOptions lowers a normalized request onto the facade's options.
func searchOptions(req *api.SearchRequest, algo kbtable.Algorithm) kbtable.SearchOptions {
	return kbtable.SearchOptions{K: req.K, Algorithm: algo, MaxRowsPerTable: req.MaxRows}
}

// writeSearchError maps a search failure onto an HTTP status.
func writeSearchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, api.CodeTimeout, "query timed out")
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusServiceUnavailable, api.CodeCanceled, "request canceled")
	case errors.Is(err, kbtable.ErrPartialEngine):
		// An owner node hosts a slice of the partition: it serves shard
		// legs, never whole queries.
		WriteError(w, http.StatusNotImplemented, api.CodeNotImplemented, err.Error())
	default:
		WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
	}
}
