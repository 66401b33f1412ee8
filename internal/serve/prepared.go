package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// preparedHandle is one registered prepared query: the normalized
// request captured at prepare time, the engine-level handle, and the
// epoch it is bound to. Handles are invalidated wholesale on every epoch
// swap — a prepared execution must answer from the snapshot the client
// prepared against or not at all (410 Gone, re-prepare) — and the
// registry holds at most maxPrepared of them, evicting the least
// recently used.
type preparedHandle struct {
	id    string
	epoch uint64
	req   SearchRequest // normalized at prepare time
	pq    *kbtable.PreparedQuery
}

// handlePrepare runs the prepare stage for a query and registers a
// handle for repeated execution via /v1/search {"prepared_id": ...}.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var preq PrepareRequest
	if !DecodePost(w, r, 1<<20, &preq) {
		return
	}
	req := SearchRequest{
		Query:     preq.Query,
		K:         preq.K,
		Algorithm: preq.Algorithm,
		D:         preq.D,
		MaxRows:   preq.MaxRows,
	}
	algo, err := s.normalizeRequest(&req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if algo == kbtable.Baseline {
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "baseline has no prepare stage and cannot be prepared")
		return
	}

	st := s.cur.Load()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	pq, err := st.eng.PrepareContext(ctx, req.Query, kbtable.SearchOptions{
		K:               req.K,
		Algorithm:       algo,
		MaxRowsPerTable: req.MaxRows,
	})
	if err != nil {
		writeSearchError(w, err)
		return
	}

	// Register at the pinned epoch: if an update published while we
	// prepared, the handle answers from a superseded snapshot, the
	// registry refuses it and it is never handed out.
	h := &preparedHandle{
		id:    fmt.Sprintf("p%d-%d", st.epoch, s.preparedSeq.Add(1)),
		epoch: st.epoch,
		req:   req,
		pq:    pq,
	}
	if !s.prepared.Put(h.id, st.epoch, h, nil) {
		WriteError(w, http.StatusConflict, api.CodeStaleEpoch, "knowledge base updated during prepare; retry")
		return
	}
	s.prepares.Add(1)

	WriteJSON(w, http.StatusOK, &PrepareResponse{
		ID:        h.id,
		Epoch:     h.epoch,
		Query:     req.Query,
		K:         req.K,
		Algorithm: req.Algorithm,
		D:         req.D,
		MaxRows:   req.MaxRows,
		Plan:      planOut(pq.Plan()),
	})
}

// servePrepared answers a /v1/search carrying prepared_id: look the
// handle up, execute only enumerate → aggregate → rank on the snapshot it
// was prepared against, and bypass the result cache and read coalescing
// (the execution IS the fast path). Admission control still applies.
func (s *Server) servePrepared(w http.ResponseWriter, r *http.Request, req *SearchRequest) {
	if req.Query != "" || req.Algorithm != "" || req.K != 0 || req.D != 0 || req.MaxRows != 0 {
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "prepared_id fixes query/k/algorithm/d/max_rows at prepare time; only priority may accompany it")
		return
	}
	release, ok := s.admit(w, r, req.Priority)
	if !ok {
		return
	}
	defer release()

	h, ok := s.prepared.Get(req.PreparedID, s.cur.Load().epoch)
	if !ok {
		WriteError(w, http.StatusGone, api.CodePreparedGone, fmt.Sprintf("unknown, expired or evicted prepared query %q: POST /%s/prepare again on the current epoch", req.PreparedID, api.Version))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	t0 := time.Now()
	answers, pi, err := h.pq.Search(ctx)
	if err != nil {
		writeSearchError(w, err)
		return
	}
	s.boundPruned.Add(pi.BoundPruned)
	s.preparedSearches.Add(1)
	WriteJSON(w, http.StatusOK, &SearchResponse{
		Query:      h.req.Query,
		K:          h.req.K,
		Algorithm:  api.AlgorithmName(pi.Algorithm),
		D:          h.req.D,
		Epoch:      h.epoch,
		PreparedID: h.id,
		ElapsedMS:  float64(time.Since(t0).Microseconds()) / 1000,
		Plan:       planOut(pi),
		Answers:    wireAnswers(answers),
	})
}
