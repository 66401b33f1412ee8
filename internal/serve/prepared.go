package serve

import (
	"context"
	"fmt"
	"net/http"

	"kbtable"
	"kbtable/internal/api"
)

// preparedHandle is one registered prepared query: the normalized
// request captured at prepare time, the snapshot it is pinned to and, for
// an auto request, the planner's choice. Handles are invalidated
// wholesale on every epoch swap — a prepared execution must answer from
// the snapshot the client prepared against or not at all (410 Gone,
// re-prepare) — and the registry holds at most maxPrepared of them,
// evicting the least recently used.
type preparedHandle struct {
	id     string
	st     *engineState
	req    SearchRequest // normalized at prepare time
	algo   kbtable.Algorithm
	chosen *kbtable.PlanInfo
}

// handlePrepare resolves a query's plan and registers a handle for
// repeated execution via /v1/search {"prepared_id": ...}.
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

	st := s.cur.Load()
	plan, _ := s.runner(st)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	pi, err := plan(ctx, req.Query, searchOptions(&req, algo))
	if err != nil {
		writeSearchError(w, err)
		return
	}

	// Register at the pinned epoch: if an update published while we
	// planned, the handle answers from a superseded snapshot, the
	// registry refuses it and it is never handed out.
	h := &preparedHandle{
		id:   fmt.Sprintf("p%d-%d", st.epoch, s.preparedSeq.Add(1)),
		st:   st,
		req:  req,
		algo: pi.Algorithm,
	}
	if algo == kbtable.Auto {
		h.chosen = &pi
	}
	if !s.prepared.Put(h.id, st.epoch, h, nil) {
		WriteError(w, http.StatusConflict, api.CodeStaleEpoch, "knowledge base updated during prepare; retry")
		return
	}
	s.prepares.Add(1)

	WriteJSON(w, http.StatusOK, &PrepareResponse{
		ID:        h.id,
		Epoch:     st.epoch,
		Query:     req.Query,
		K:         req.K,
		Algorithm: req.Algorithm,
		D:         req.D,
		MaxRows:   req.MaxRows,
		Plan:      planOut(pi),
	})
}

// servePrepared answers a /v1/search carrying prepared_id: look the
// handle up and serve its request with its plan on the snapshot it was
// prepared against, through the result cache, read coalescing and, on a
// coordinator, the cluster legs — the path every search takes.
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
	s.preparedSearches.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	s.serveResolved(ctx, w, h.st, &h.req, h.algo, h.chosen, h.id)
}
