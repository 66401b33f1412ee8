package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"kbtable"
	"kbtable/internal/api"
)

// handleUpdate applies an atomic batch of KB mutations and publishes the
// next epoch. Updates are serialized; searches are never blocked — they
// run on the old snapshot until the new one is atomically swapped in, and
// only cached entries whose query words the update touched are dropped.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if !acceptPost(w, r) {
		return
	}
	if s.cfg.ReadOnly {
		WriteError(w, http.StatusNotImplemented, api.CodeReadOnly, "this server is read-only")
		return
	}
	var req UpdateRequest
	if !decodeBody(w, r, 8<<20, &req) {
		return
	}
	if len(req.Ops) == 0 {
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "update has no ops")
		return
	}
	if len(req.Ops) > s.cfg.MaxUpdateOps {
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("update has %d ops, limit is %d", len(req.Ops), s.cfg.MaxUpdateOps))
		return
	}

	resp, err := s.applyUpdate(kbtable.Update{Ops: req.Ops})
	switch {
	case err == nil:
		WriteJSON(w, http.StatusOK, resp)
	case errors.Is(err, kbtable.ErrDurability):
		// The batch was valid but could not be persisted; nothing was
		// published, and the store refuses further appends.
		WriteError(w, http.StatusServiceUnavailable, api.CodeDurability, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
	}
}

// Apply applies one update batch through the full serving pipeline —
// in-order epoch publish, word-precise cache invalidation, prepared
// handle expiry, durability when configured — exactly like POST
// /v1/update, and returns the newly published epoch. It is the
// replication entry point: a follower node replays WAL records shipped
// from its coordinator through Apply so every serving invariant holds
// on followers too. Config.ReadOnly does not gate Apply.
func (s *Server) Apply(u kbtable.Update) (uint64, error) {
	resp, err := s.applyUpdate(u)
	if err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// applyUpdate is the shared update pipeline behind POST /v1/update and
// Apply.
func (s *Server) applyUpdate(u kbtable.Update) (*UpdateResponse, error) {
	// Apply in memory on the newest state in the chain — published or
	// not. applyMu serializes only the (fast, copy-on-write) apply and
	// the WAL enqueue; the fsync happens after it is released, so
	// concurrent updates overlap their applies with each other's fsyncs
	// and the store group-commits their WAL records together.
	s.applyMu.Lock()
	base := s.tail
	if base == nil {
		base = s.cur.Load()
	}
	t0 := time.Now()
	var newEng *kbtable.Engine
	var res kbtable.UpdateResult
	var commit *kbtable.Commit
	var err error
	if s.cfg.Store != nil {
		// Durable: the accepted batch reaches the write-ahead log (fsync)
		// before the epoch swap publishes it — commit.Wait() below
		// resolves before publication — so by the time any search can
		// observe this update, a crash can no longer lose it.
		newEng, res, commit, err = base.eng.ApplyLoggedAsync(s.cfg.Store, u)
	} else {
		newEng, res, err = base.eng.ApplyUpdate(u)
	}
	if err != nil {
		s.applyMu.Unlock()
		return nil, err
	}
	next := &engineState{eng: newEng, epoch: base.epoch + 1}
	s.tail = next
	s.applyMu.Unlock()

	if commit != nil {
		if _, err := commit.Wait(); err != nil {
			// The batch never became durable: unpublish the poisoned
			// chain so later applies rebase off the published state.
			// Every WAL record enqueued after this one fails too (the
			// store is read-only after an append failure), so no handler
			// downstream of this epoch is left waiting to publish.
			s.applyMu.Lock()
			s.tail = nil
			s.applyMu.Unlock()
			return nil, err
		}
	}

	// Publish strictly in epoch order: a handler whose predecessor is
	// still fsyncing parks here until that epoch lands, so searches
	// observe epochs 1, 2, 3, … with no gaps and every response's epoch
	// matches exactly the update history it reflects.
	s.pubMu.Lock()
	for s.cur.Load().epoch+1 != next.epoch {
		s.pubCond.Wait()
	}
	// Both caches move to the next epoch before it is published, so a
	// result or handle computed on the superseded epoch is either judged
	// by this pass or refused by Put. Results whose words the update
	// touched are dropped (all of them when PageRank moved globally);
	// prepared handles are bound to their snapshot, so every one is
	// dropped and answers 410 until the client re-prepares.
	_, invalidated := s.cache.Invalidate(res.TouchedWords, res.ScoresRefreshed)
	s.prepared.Invalidate(nil, true)
	s.cur.Store(next)
	s.pubCond.Broadcast()
	s.pubMu.Unlock()
	s.updates.Add(1)
	s.maybeCheckpoint()

	ids := make([]int64, 0, len(res.NewEntities))
	for _, id := range res.NewEntities {
		ids = append(ids, int64(id))
	}
	return &UpdateResponse{
		Epoch:            next.epoch,
		NewEntities:      ids,
		Entities:         res.Entities,
		Attributes:       res.Attributes,
		EntriesRemoved:   res.EntriesRemoved,
		EntriesAdded:     res.EntriesAdded,
		DirtyRoots:       res.DirtyRoots,
		TouchedWords:     len(res.TouchedWords),
		InvalidatedCache: invalidated,
		AffectedShards:   res.AffectedShards,
		ElapsedMS:        float64(time.Since(t0).Microseconds()) / 1000,
	}, nil
}

// maybeCheckpoint starts a background checkpoint when the WAL has
// grown CheckpointEvery records past the last snapshot. At most one
// checkpoint runs at a time; the engine snapshot it serializes is
// immutable, so searches and further updates are never blocked (the
// WAL suffix appended meanwhile simply survives the truncation).
func (s *Server) maybeCheckpoint() {
	if s.cfg.Store == nil || s.cfg.CheckpointEvery < 0 {
		return
	}
	ss := s.cfg.Store.Stats()
	seq := s.cur.Load().eng.Seq()
	if seq < ss.SnapshotSeq {
		// The engine is behind the store's snapshot (a Config pairing an
		// engine with a store it was not recovered from). Unsigned
		// subtraction would wrap and fire a doomed checkpoint on every
		// update; there is nothing useful to snapshot, so stand down.
		return
	}
	if seq-ss.SnapshotSeq < uint64(s.cfg.CheckpointEvery) {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return // one goroutine at a time; the next update re-evaluates
	}
	go func() {
		defer s.ckptBusy.Store(false)
		_ = s.runCheckpoint()
	}()
}

// runCheckpoint serializes the CURRENT engine into the store and
// maintains the /v1/healthz counters. The run mutex orders concurrent
// callers (background goroutine vs shutdown's CheckpointNow), and the
// published engine is loaded inside it: the second runner then sees a
// seq >= the snapshot the first one wrote, so it either skips or
// checkpoints strictly newer state — never a spurious regression error
// or a double count.
func (s *Server) runCheckpoint() error {
	s.ckptRunMu.Lock()
	defer s.ckptRunMu.Unlock()
	cs, err := s.cur.Load().eng.Checkpoint(s.cfg.Store)
	if err != nil {
		s.ckptErrors.Add(1)
		return err
	}
	if !cs.Skipped {
		s.checkpoints.Add(1)
		s.lastCkptUnix.Store(time.Now().Unix())
	}
	return nil
}

// CheckpointNow synchronously checkpoints the currently published
// engine (kbserve calls it on graceful shutdown, so a clean restart
// replays no WAL). Without a store it is a no-op.
func (s *Server) CheckpointNow() error {
	if s.cfg.Store == nil {
		return nil
	}
	return s.runCheckpoint()
}
