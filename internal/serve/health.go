package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only")
		return
	}
	st := s.cur.Load()
	ixs, info := st.eng.IndexStats(), st.eng.ShardInfo()
	cs := s.cache.Stats()
	resp := &api.HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Epoch:         st.epoch,
		Updates:       s.updates.Load(),
		Updatable:     !s.cfg.ReadOnly,
		Cache:         api.CacheStats{Size: cs.Size, Capacity: cs.Capacity, Hits: cs.Hits, Misses: cs.Misses},
		Planner: api.PlannerHealth{
			AutoRequests:     s.autoRequests.Load(),
			ChosePatternEnum: s.autoChosePE.Load(),
			ChoseLinearEnum:  s.autoChoseLE.Load(),
		},
		Index: &api.IndexHealth{
			Bytes:         ixs.Bytes,
			BytesPerEntry: ixs.BytesPerEntry,
			Entries:       ixs.Entries,
			Patterns:      ixs.Patterns,
			D:             ixs.D,
		},
		Shards: &api.ShardHealth{
			Count:   info.Count,
			Epochs:  info.Epochs,
			Roots:   info.Roots,
			Entries: info.Entries,
		},
	}
	if s.gate != nil {
		resp.Serving.MaxConcurrent = s.cfg.MaxConcurrent
		resp.Serving.InFlight, resp.Serving.QueueDepth = s.gate.depth()
		resp.Serving.ShedQueueFull = s.gate.shedFull.Load()
		resp.Serving.ShedQueueTimeout = s.gate.shedTimeout.Load()
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		resp.Durability = &api.DurabilityHealth{
			DataDir:             ss.Dir,
			WALSeq:              ss.LastSeq,
			SnapshotSeq:         ss.SnapshotSeq,
			PendingRecords:      ss.LastSeq - ss.SnapshotSeq,
			WALBytes:            ss.WALBytes,
			Checkpoints:         s.checkpoints.Load(),
			CheckpointErrors:    s.ckptErrors.Load(),
			CheckpointEvery:     s.cfg.CheckpointEvery,
			LastCheckpointUnix:  s.lastCkptUnix.Load(),
			TornOnOpen:          ss.TornOnOpen,
			WALBroken:           ss.Broken,
			GroupCommitBatches:  ss.GroupCommitBatches,
			GroupCommitRecords:  ss.GroupCommitRecords,
			GroupCommitMaxBatch: ss.GroupCommitMaxBatch,
		}
		if ss.Broken {
			resp.Status = "degraded"
		}
	}
	if s.cfg.Cluster != nil {
		resp.Cluster = s.cfg.Cluster()
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleShards reports which shards this node hosts and at what WAL
// sequence — the membership probe a coordinator or operator uses to
// check a node's role and replication progress.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only")
		return
	}
	st := s.cur.Load()
	resp := &api.ShardsResponse{
		Shards:   st.eng.ShardInfo().Count,
		Owned:    st.eng.OwnedShards(),
		Complete: st.eng.Complete(),
		Epoch:    st.epoch,
		Seq:      st.eng.Seq(),
		Role:     "standalone",
	}
	if s.cfg.Cluster != nil {
		if ch := s.cfg.Cluster(); ch != nil {
			resp.Role, resp.NodeID = ch.Role, ch.NodeID
			if ch.Seq > resp.Seq {
				resp.Seq = ch.Seq
			}
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// maxWALPull caps the records one /v1/wal/segments response carries,
// whatever max the request names: a coordinator keeps its whole WAL, and
// one pull must not materialise and ship all of it. More tells the
// follower to pull again.
const maxWALPull = 1024

// handleWALSegments streams committed WAL records after a sequence
// cursor — the replication pull a follower replays through Apply.
// Responses are bounded (max records per pull) and More tells the
// follower to pull again immediately instead of sleeping. A cursor
// older than the retained history (checkpoint truncated it away)
// answers 410 wal_gap: the follower must reseed from a snapshot.
func (s *Server) handleWALSegments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.Store == nil {
		WriteError(w, http.StatusNotImplemented, api.CodeNotImplemented, "this server has no write-ahead log")
		return
	}
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad after cursor: "+err.Error())
			return
		}
		after = n
	}
	max := 256
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad max: must be a positive integer")
			return
		}
		max = min(n, maxWALPull)
	}
	recs, err := s.cfg.Store.ReadWAL(after, max)
	if err != nil {
		if errors.Is(err, kbtable.ErrWALGap) {
			WriteError(w, http.StatusGone, api.CodeWALGap, err.Error())
			return
		}
		WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	if recs == nil {
		recs = []kbtable.WALRecord{}
	}
	resp := &api.WALSegmentsResponse{After: after, Records: recs}
	if len(recs) > 0 {
		resp.LastSeq = recs[len(recs)-1].Seq
		resp.More = resp.LastSeq < s.cfg.Store.Stats().LastSeq
	} else {
		resp.LastSeq = after
	}
	WriteJSON(w, http.StatusOK, resp)
}
