package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// cacheEntry is one computed result, shared read-only by the result
// cache, the flight that computed it and every request it answers. It
// holds the answers encoded once, as the JSON array every reply splices
// in, and not the answer structs: a cached table costs its bytes alone.
// head carries the reply fields the entry fixes (query, k, algorithm, d,
// epoch, elapsed_ms); plan is the plan the computing request reported.
type cacheEntry struct {
	head    SearchResponse
	plan    kbtable.PlanInfo
	answers []byte
}

// write answers one request from the entry: a freshly encoded head,
// then the cached answer bytes, in one Write. The plan must reflect THIS
// request, not whichever request populated the entry: an auto request
// carries its own planner decision and probe statistics, an explicit
// request carries no decision, even when the entry was computed the
// other way around. Stage timings stay those of the computing run.
func (e *cacheEntry) write(w http.ResponseWriter, chosen *kbtable.PlanInfo, cached, coalesced bool) {
	resp := e.head
	resp.Cached, resp.Coalesced = cached, coalesced
	resp.Plan = planOut(planFor(e.plan, chosen))
	body, err := api.AppendSearchResponse(make([]byte, 0, len(e.answers)+len(resp.Query)+512), &resp, e.answers)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// planFor returns run — the plan of an execution under an explicitly
// named algorithm — as a request should report it. chosen non-nil marks
// an auto request that resolved to that algorithm: it surfaces the
// planner's decision and the (richer) statistics it was based on, keeping
// the run's timings. nil marks an explicit request: no decision.
func planFor(run kbtable.PlanInfo, chosen *kbtable.PlanInfo) kbtable.PlanInfo {
	if chosen == nil {
		run.Auto, run.Reason = false, ""
		return run
	}
	run.Auto, run.Reason = true, chosen.Reason
	run.CandidateRoots, run.RootTypes = chosen.CandidateRoots, chosen.RootTypes
	run.PatternSpace, run.Frontier = chosen.PatternSpace, chosen.Frontier
	return run
}

// planOut converts a facade PlanInfo to the wire form.
func planOut(pi kbtable.PlanInfo) *PlanOut {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return &PlanOut{
		Algorithm:      api.AlgorithmName(pi.Algorithm),
		Auto:           pi.Auto,
		Reason:         pi.Reason,
		CandidateRoots: pi.CandidateRoots,
		RootTypes:      pi.RootTypes,
		PatternSpace:   pi.PatternSpace,
		Frontier:       pi.Frontier,
		PrepareMS:      ms(pi.Prepare),
		EnumerateMS:    ms(pi.Enumerate),
		AggregateMS:    ms(pi.Aggregate),
		RankMS:         ms(pi.Rank),
		BoundPruned:    pi.BoundPruned,
	}
}

// encodeAnswers converts engine answers to the wire form and encodes
// them, once per computed result.
func encodeAnswers(answers []kbtable.Answer) ([]byte, error) {
	wire := make([]SearchAnswer, len(answers))
	for i, a := range answers {
		wire[i] = SearchAnswer(a)
	}
	return api.AppendAnswers(nil, wire)
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
func (s *Server) normalizeRequest(req *SearchRequest) (kbtable.Algorithm, error) {
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

// cacheKey identifies one (query, options) result in the LRU. algo is the
// *resolved* algorithm name: an "auto" request whose plan resolves to
// patternenum shares its entry with explicit patternenum requests (the
// answers are bit-identical by the planner's equivalence guarantee).
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

// runner returns how searches pinned to st resolve a plan and execute:
// on the engine itself, or — in coordinator mode — scattered through
// Config.Distributor to the owner nodes and gathered on the engine,
// bit-identical to SearchPlan by the Theorem-5 fold, with failed legs
// re-executed locally inside the engine. Scattered calls carry st's WAL
// position on their context so the cluster transport can demand owner
// nodes at exactly that position (api.SeqFrom on the other side), keeping
// every leg on the snapshot the request is answering from.
func (s *Server) runner(st *engineState) (
	plan func(context.Context, string, kbtable.SearchOptions) (kbtable.PlanInfo, error),
	search func(context.Context, string, kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error),
) {
	exec := s.cfg.Distributor
	if exec == nil {
		return st.eng.Plan, st.eng.SearchPlan
	}
	seq := st.eng.Seq()
	plan = func(ctx context.Context, q string, o kbtable.SearchOptions) (kbtable.PlanInfo, error) {
		return st.eng.PlanDistributed(api.WithSeq(ctx, seq), exec, q, o)
	}
	search = func(ctx context.Context, q string, o kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error) {
		return st.eng.SearchDistributed(api.WithSeq(ctx, seq), exec, q, o)
	}
	return plan, search
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req SearchRequest
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

	// Pin this request to the currently published snapshot: even if an
	// update lands mid-query, we keep searching (and report) this epoch.
	st := s.cur.Load()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	// Resolve "auto" before touching the cache: the planner names the
	// algorithm the query would run as, the cache is keyed under that
	// name, and execution (on a miss) requests it explicitly — so auto
	// answers share entries with explicit requests in both directions,
	// and are byte-identical to them. The probe repeats prepare-stage
	// lookups that a miss's execution redoes (a plan-cache hit skips
	// them); that double work is the price of knowing the key before the
	// lookup, and is small next to enumeration (it is exactly the
	// prepare_ms share of the plan's stage timings).
	var chosen *kbtable.PlanInfo
	if algo == kbtable.Auto {
		s.autoRequests.Add(1)
		plan, _ := s.runner(st)
		pi, err := plan(ctx, req.Query, searchOptions(&req, algo))
		if err != nil {
			writeSearchError(w, err)
			return
		}
		chosen = &pi
		algo = pi.Algorithm
		if algo == kbtable.LinearEnum {
			s.autoChoseLE.Add(1)
		} else {
			s.autoChosePE.Add(1)
		}
	}
	algoName := api.AlgorithmName(algo)

	key := cacheKey(req.Query, algoName, req.K, req.D, req.MaxRows)
	if hit, ok := s.cache.Get(key, st.epoch); ok {
		hit.write(w, chosen, true, false)
		return
	}

	// Read coalescing: identical concurrent misses — same cache key AND
	// same pinned epoch — share one execution. The epoch in the flight
	// key keeps the freshness contract intact: a request that loaded
	// epoch N+1 never receives bytes computed on epoch N.
	flightKey := fmt.Sprintf("%d|%s", st.epoch, key)
	ent, joined, err := s.flights.do(ctx, flightKey, func() (*cacheEntry, error) {
		// The leader runs detached from its own request context:
		// followers depend on this execution, so one impatient client
		// disconnecting must not fail everyone sharing the flight.
		lctx, lcancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
		defer lcancel()

		t0 := time.Now()
		_, search := s.runner(st)
		answers, pi, err := search(lctx, req.Query, searchOptions(&req, algo))
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		s.boundPruned.Add(pi.BoundPruned)
		encoded, err := encodeAnswers(answers)
		if err != nil {
			return nil, err
		}
		ent := &cacheEntry{
			head: SearchResponse{
				Query:     req.Query,
				K:         req.K,
				Algorithm: algoName,
				D:         req.D,
				Epoch:     st.epoch,
				ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			},
			plan:    planFor(pi, chosen),
			answers: encoded,
		}
		// Tagged with the query's canonical words for word-precise
		// invalidation; refused if an update published since st.
		s.cache.Put(key, st.epoch, ent, st.eng.QueryWords(req.Query))
		return ent, nil
	})
	if err != nil {
		writeSearchError(w, err)
		return
	}
	if joined {
		s.metrics.coalesced.Add(1)
	}
	ent.write(w, chosen, false, joined)
}

// searchOptions lowers a normalized request onto the facade's options.
func searchOptions(req *SearchRequest, algo kbtable.Algorithm) kbtable.SearchOptions {
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
