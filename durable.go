package kbtable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"kbtable/internal/cache"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
	"kbtable/internal/shard"
	"kbtable/internal/store"
)

// Durability: a Store pairs an engine with a data directory holding a
// snapshot store and a write-ahead update log (internal/store). The
// contract mirrors the in-memory engine exactly:
//
//   - Engine.Checkpoint serializes the engine — graph, per-shard
//     indexes, ownership table, shard epochs — into a checksummed
//     snapshot directory and truncates the WAL it covers.
//   - Engine.ApplyLogged applies an update batch and, on success,
//     appends it to the WAL (fsync) before returning; the batch is
//     durable when ApplyLogged returns.
//   - OpenDirOpts / Store.Recover loads the newest snapshot and replays the
//     WAL suffix through the same ApplyUpdate code path the live engine
//     ran, arriving at a bit-identical engine: searches over the
//     recovered engine produce byte-identical answers. A torn final WAL
//     record (crash mid-append) is discarded cleanly — it was never
//     acknowledged — and never double-applied.
//
// Updates applied with plain ApplyUpdate are NOT logged and will not
// survive a restart; a durable serving path must use ApplyLogged for
// every mutation.

// ErrNoSnapshot reports that a data directory holds no snapshot yet:
// recover by building an Engine from its source (NewEngine) and
// Checkpoint-ing it into the store.
var ErrNoSnapshot = store.ErrNoSnapshot

// ErrDurability marks failures of the durable layer itself (a WAL
// append that could not be made durable), as opposed to an invalid
// update batch: the batch was valid, but could not be persisted.
var ErrDurability = errors.New("kbtable: durability failure")

// Store is an open durable data directory.
type Store struct {
	s *store.Store

	mu sync.Mutex // serializes ApplyLogged chains against each other
}

// StoreOptions tunes the durable layer. The zero value is the default
// configuration (group commit on, batch cap 128, no artificial delay).
type StoreOptions struct {
	// GroupCommitMaxBatch caps how many WAL records share one fsync
	// (<=0 = default 128).
	GroupCommitMaxBatch int
	// GroupCommitMaxDelay is how long the committer holds a non-full
	// batch open for stragglers before paying the fsync (0 = commit
	// immediately; a solo append sees no added latency either way).
	GroupCommitMaxDelay time.Duration
}

func (o StoreOptions) storeOpts() []store.Option {
	var opts []store.Option
	if o.GroupCommitMaxBatch > 0 || o.GroupCommitMaxDelay > 0 {
		opts = append(opts, store.WithGroupCommit(o.GroupCommitMaxBatch, o.GroupCommitMaxDelay))
	}
	return opts
}

// OpenStoreOpts opens (creating if needed) a durable data directory; so
// tunes the durable layer (the zero value is the default). The WAL tail
// is scanned and any torn suffix truncated, so the store is immediately
// ready for appends.
func OpenStoreOpts(dir string, so StoreOptions) (*Store, error) {
	s, err := store.Open(dir, so.storeOpts()...)
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	return &Store{s: s}, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.s.Dir() }

// Close releases the store's WAL tail. All acknowledged updates are
// already durable; Close is not a flush point.
func (s *Store) Close() error { return s.s.Close() }

// HasSnapshot reports whether the directory holds a loadable snapshot.
func (s *Store) HasSnapshot() bool { return s.s.Stats().HasSnapshot }

// StoreStats describes the store for monitoring surfaces (kbserve's
// /healthz durability block).
type StoreStats struct {
	// Dir is the data directory.
	Dir string
	// LastSeq is the last durable WAL sequence (0 before any append).
	LastSeq uint64
	// SnapshotSeq is the newest snapshot's WAL position; WAL records in
	// (SnapshotSeq, LastSeq] would replay on recovery.
	SnapshotSeq uint64
	// HasSnapshot reports whether any snapshot exists yet.
	HasSnapshot bool
	// WALBytes is the live WAL size in bytes.
	WALBytes int64
	// TornOnOpen / DroppedBytes report that opening found (and
	// truncated) an invalid WAL suffix — the signature of a crash
	// mid-append.
	TornOnOpen   bool
	DroppedBytes int64
	// Broken reports a failed WAL append: every further ApplyLogged is
	// refused (ErrDurability) until the process restarts. Surface it —
	// a "healthy" server that rejects all writes is an outage.
	Broken bool
	// Group-commit batching: how many fsyncs covered how many records
	// (Records/Batches is the average batch size), the largest batch,
	// and a batch-size histogram with upper bounds 1,2,4,...,64,+Inf.
	GroupCommitBatches  uint64
	GroupCommitRecords  uint64
	GroupCommitMaxBatch int
	GroupCommitHist     [8]uint64
}

// Stats returns current store counters.
func (s *Store) Stats() StoreStats {
	st := s.s.Stats()
	return StoreStats{
		Dir:                 s.s.Dir(),
		LastSeq:             st.LastSeq,
		SnapshotSeq:         st.SnapshotSeq,
		HasSnapshot:         st.HasSnapshot,
		WALBytes:            st.WALBytes,
		TornOnOpen:          st.TornOnOpen,
		DroppedBytes:        st.DroppedBytes,
		Broken:              st.Broken,
		GroupCommitBatches:  st.GroupCommit.Batches,
		GroupCommitRecords:  st.GroupCommit.Records,
		GroupCommitMaxBatch: st.GroupCommit.MaxBatch,
		GroupCommitHist:     st.GroupCommit.Hist,
	}
}

// Seq returns the last WAL sequence number reflected in this engine
// snapshot (0 for engines never attached to a Store).
func (e *Engine) Seq() uint64 { return e.seq }

// walRecord is the WAL payload: one accepted update batch as JSON (the
// same declarative UpdateOp schema the HTTP API speaks).
type walRecord struct {
	Ops []UpdateOp `json:"ops"`
}

// ErrWALGap reports that a WAL read cursor points at history the store
// no longer holds: a checkpoint GC'd the segments past the cursor, so a
// follower at that position cannot catch up incrementally and must be
// reseeded from a snapshot.
var ErrWALGap = errors.New("kbtable: wal history gap")

// WALRecord is one committed update batch read back from the WAL — the
// unit of replication a cluster follower pulls and replays through
// ApplyUpdate (the exact path the coordinator applied it through).
type WALRecord struct {
	Seq uint64     `json:"seq"`
	Ops []UpdateOp `json:"ops"`
}

// ReadWAL returns up to max committed records with sequence > after, in
// order (max <= 0 means a default batch of 512). Safe to call while the
// store is appending: the scan stops cleanly before any record that is
// still in flight. Returns ErrWALGap when records past the cursor were
// checkpointed away.
func (s *Store) ReadWAL(after uint64, max int) ([]WALRecord, error) {
	if max <= 0 {
		max = 512
	}
	var out []WALRecord
	errLimit := errors.New("kbtable: wal read limit")
	st, err := s.s.Replay(after, func(seq uint64, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("kbtable: decode wal record %d: %w", seq, err)
		}
		out = append(out, WALRecord{Seq: seq, Ops: rec.Ops})
		if len(out) >= max {
			return errLimit
		}
		return nil
	})
	if err != nil && !errors.Is(err, errLimit) {
		return nil, err
	}
	if st.Torn && st.Records == 0 && after < s.s.Stats().SnapshotSeq {
		return nil, fmt.Errorf("%w: records after seq %d were checkpointed away", ErrWALGap, after)
	}
	return out, nil
}

// ApplyLogged is ApplyUpdate plus durability: the batch is validated
// and applied in memory first, and only an accepted batch is appended
// to the write-ahead log (fsync) before ApplyLogged returns — so the
// WAL holds exactly the update history that executed, and a batch is
// durable by the time any caller can observe its engine. On a WAL
// append failure the new engine is discarded (the receiver keeps
// serving) and the store refuses further appends, because the tail can
// no longer be trusted.
func (e *Engine) ApplyLogged(s *Store, u Update) (*Engine, UpdateResult, error) {
	if s == nil {
		return nil, UpdateResult{}, errors.New("kbtable: ApplyLogged needs a store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ne, res, commit, err := e.ApplyLoggedAsync(s, u)
	if err != nil {
		return nil, res, err
	}
	if _, err := commit.Wait(); err != nil {
		return nil, res, err
	}
	return ne, res, nil
}

// Commit is an in-flight durable update from ApplyLoggedAsync: the
// batch is applied in memory but not yet fsynced. Wait blocks until the
// WAL record is durable (possibly group-committed alongside other
// in-flight updates) and stamps the engine with its sequence number.
type Commit struct {
	p   *store.Pending
	eng *Engine
}

// Wait blocks until the update is durable. On success the engine
// returned by ApplyLoggedAsync carries the assigned WAL sequence; on
// failure that engine must be discarded (its update never became
// durable and the store refuses further appends).
func (c *Commit) Wait() (uint64, error) {
	seq, err := c.p.Wait()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrDurability, err)
	}
	c.eng.seq = seq
	return seq, nil
}

// ApplyLoggedAsync is the pipelined form of ApplyLogged: it applies the
// batch in memory and ENQUEUES the WAL record for group commit, but
// returns before the record is durable. The caller must not publish the
// new engine (or acknowledge the update) until Commit.Wait succeeds.
//
// Unlike ApplyLogged it does not serialize callers: the caller owns the
// apply chain and must call ApplyLoggedAsync serially, each call on the
// engine returned by the previous one — enqueue order is WAL order.
// This is what lets a serving layer overlap the in-memory apply of
// update N+1 with the fsync of update N, the core of the group-commit
// throughput win.
func (e *Engine) ApplyLoggedAsync(s *Store, u Update) (*Engine, UpdateResult, *Commit, error) {
	if s == nil {
		return nil, UpdateResult{}, nil, errors.New("kbtable: ApplyLoggedAsync needs a store")
	}
	ne, res, err := e.ApplyUpdate(u)
	if err != nil {
		return nil, res, nil, err
	}
	payload, err := json.Marshal(walRecord{Ops: u.Ops})
	if err != nil {
		return nil, res, nil, fmt.Errorf("kbtable: encode update for wal: %w", err)
	}
	return ne, res, &Commit{p: s.s.AppendAsync(payload), eng: ne}, nil
}

// CheckpointStats reports what one Checkpoint wrote.
type CheckpointStats struct {
	// Seq is the WAL position the snapshot covers.
	Seq uint64
	// Bytes is the snapshot's total size (0 when skipped).
	Bytes int64
	// Files counts the snapshot's data files (graph + indexes + owners).
	Files int
	// Skipped reports that a snapshot at Seq already existed.
	Skipped bool
	// Elapsed is the wall-clock time spent writing.
	Elapsed time.Duration
}

// Checkpoint writes the engine's full state — graph, per-shard indexes,
// ownership table, shard epochs — as a new snapshot covering the
// engine's WAL position, then truncates the WAL records the snapshot
// absorbed and removes the snapshot it supersedes. The engine is
// immutable, so Checkpoint can run concurrently with searches and with
// ApplyLogged on NEWER engines in the chain (the background-checkpoint
// pattern kbserve uses); it must not run on an engine carrying unlogged
// ApplyUpdate results.
func (e *Engine) Checkpoint(s *Store) (CheckpointStats, error) {
	if s == nil {
		return CheckpointStats{}, errors.New("kbtable: Checkpoint needs a store")
	}
	start := time.Now()
	cs := CheckpointStats{Seq: e.seq}
	if st := s.s.Stats(); st.HasSnapshot && st.SnapshotSeq == e.seq {
		cs.Skipped = true
		return cs, nil
	}
	m := store.Manifest{
		Seq:              e.seq,
		D:                e.o.D,
		Shards:           e.o.Shards,
		Nodes:            e.g.g.NumNodes(),
		Edges:            e.g.g.NumEdges(),
		UniformPR:        e.o.UniformPageRank,
		Synonyms:         e.o.Synonyms,
		IndexWireVersion: index.WireVersion,
	}
	files := map[string]func(io.Writer) error{
		store.GraphFileName: e.g.g.Encode,
	}
	for si := 0; si < e.sh.NumShards(); si++ {
		si := si
		files[store.IndexFileName(si)] = func(w io.Writer) error {
			return e.sh.EncodeShard(si, w)
		}
	}
	// A one-shard engine has no table to persist (Owners is nil) and its
	// snapshot stays the file set and manifest of every earlier release's
	// unsharded engine: graph, one index, no epochs.
	if owners := e.sh.Owners(); owners != nil {
		m.Epochs = e.sh.Epochs()
		files[store.OwnersFileName] = func(w io.Writer) error {
			_, err := w.Write(owners)
			return err
		}
	}
	// files is the store's only reference to e, and nothing reads it after
	// the call, so e can be collected once the snapshot is written. The
	// store then removes the superseded snapshot, which can take longer
	// than the write; a background checkpoint of an engine that updates
	// have since replaced must not keep that epoch's index alive meanwhile.
	nfiles := len(files)
	n, err := s.s.Checkpoint(m, files)
	if errors.Is(err, store.ErrSnapshotCurrent) {
		// A concurrent checkpoint covering the same sequence won the
		// race past the pre-check above; that is a skip, not a failure.
		cs.Skipped = true
		return cs, nil
	}
	if err != nil {
		return cs, fmt.Errorf("kbtable: checkpoint: %w", err)
	}
	cs.Bytes, cs.Files = n, nfiles
	cs.Elapsed = time.Since(start)
	return cs, nil
}

// RecoverStats describes one recovery: where the snapshot stood, how
// much WAL replayed on top, and whether a torn tail was discarded.
type RecoverStats struct {
	// SnapshotSeq is the loaded snapshot's WAL position.
	SnapshotSeq uint64
	// Seq is the recovered engine's final WAL position.
	Seq uint64
	// Replayed counts the WAL update batches re-applied.
	Replayed int
	// TornTail reports that the WAL ended in an invalid record (the
	// signature of a crash mid-append) that was discarded; recovery
	// stopped cleanly at the last good record.
	TornTail bool
	// Shards is the recovered engine's shard count, at least 1.
	Shards int
	// SnapshotLoad / Replay split the recovery wall-clock time.
	SnapshotLoad time.Duration
	Replay       time.Duration
}

// Recover rebuilds the engine from the newest snapshot plus the WAL
// suffix. The recovered engine is equivalent to the in-memory engine
// that executed the same logged history: searches produce byte-
// identical answers, and further ApplyLogged chains continue where the
// log left off. Returns ErrNoSnapshot (wrapped) for a fresh directory.
//
// opts.Workers (and other runtime-only options) come from the caller;
// the build-time options — D, Shards, UniformPageRank, Synonyms — come
// from the snapshot manifest, and a non-zero caller value that
// contradicts the manifest is an error rather than a silent rebuild.
func (s *Store) Recover(opts EngineOptions) (*Engine, RecoverStats, error) {
	var rs RecoverStats
	sn, err := s.s.Snapshot()
	if err != nil {
		return nil, rs, fmt.Errorf("kbtable: %w", err)
	}
	m := sn.Manifest
	if opts.D != 0 && opts.D != m.D {
		return nil, rs, fmt.Errorf("kbtable: snapshot was built with d=%d, requested d=%d", m.D, opts.D)
	}
	if opts.Shards != 0 && shardCount(opts.Shards) != shardCount(m.Shards) {
		return nil, rs, fmt.Errorf("kbtable: snapshot has %d shards, requested %d (re-shard by rebuilding and checkpointing)", shardCount(m.Shards), opts.Shards)
	}
	opts.D = m.D
	opts.Shards = m.Shards
	opts.UniformPageRank = m.UniformPR
	opts.Synonyms = m.Synonyms

	t0 := time.Now()
	eng, err := loadSnapshot(sn, opts)
	if err != nil {
		return nil, rs, err
	}
	rs.SnapshotSeq = m.Seq
	rs.Shards = eng.sh.NumShards()
	rs.SnapshotLoad = time.Since(t0)

	t1 := time.Now()
	st, err := s.s.Replay(m.Seq, func(seq uint64, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("kbtable: wal record %d: %w", seq, err)
		}
		ne, _, err := eng.ApplyUpdate(Update{Ops: rec.Ops})
		if err != nil {
			return fmt.Errorf("kbtable: wal record %d does not apply: %w", seq, err)
		}
		ne.seq = seq
		eng = ne
		return nil
	})
	if err != nil {
		return nil, rs, err
	}
	rs.Replayed = st.Records
	rs.TornTail = st.Torn || s.s.Stats().TornOnOpen
	rs.Seq = eng.seq
	rs.Replay = time.Since(t1)
	return eng, rs, nil
}

// loadSnapshot materializes an engine from a verified snapshot, loading
// shard indexes in parallel.
func loadSnapshot(sn *store.Snapshot, opts EngineOptions) (*Engine, error) {
	m := sn.Manifest
	gb, err := sn.ReadFile(store.GraphFileName)
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	g, err := kg.ReadFrom(bytes.NewReader(gb))
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	if g.NumNodes() != m.Nodes || g.NumEdges() != m.Edges {
		return nil, fmt.Errorf("kbtable: snapshot graph has %d nodes/%d edges, manifest says %d/%d",
			g.NumNodes(), g.NumEdges(), m.Nodes, m.Edges)
	}

	want := shardCount(m.Shards)
	if nix := sn.NumIndexFiles(); nix != want {
		return nil, fmt.Errorf("kbtable: snapshot holds %d index files for %d shards", nix, want)
	}

	// Every shard file is independent: read + verify + decode in parallel.
	lo := opts.indexOptions()
	lo.PageRank = shard.PageRankOf(g, lo)
	ixs := make([]*index.Index, want)
	errs := make([]error, want)
	var wg sync.WaitGroup
	for si := 0; si < want; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			data, err := sn.ReadFile(store.IndexFileName(si))
			if err != nil {
				errs[si] = err
				return
			}
			ixs[si], errs[si] = index.Load(bytes.NewReader(data), g, lo.PageRank)
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("kbtable: %w", err)
		}
	}
	for si, ix := range ixs {
		if ix.D() != m.D {
			return nil, fmt.Errorf("kbtable: shard %d index has d=%d, manifest says d=%d", si, ix.D(), m.D)
		}
	}

	// One-shard snapshots carry no ownership table; FromParts derives it.
	var owners []byte
	if _, ok := m.Files[store.OwnersFileName]; ok {
		if owners, err = sn.ReadFile(store.OwnersFileName); err != nil {
			return nil, fmt.Errorf("kbtable: %w", err)
		}
	}
	sh, err := shard.FromParts(g, owners, ixs, m.Epochs, lo)
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	return &Engine{g: &Graph{g: g}, sh: sh, o: opts, seq: m.Seq, plans: cache.New[search.PlanStats](planCacheSize)}, nil
}

// OpenDirOpts opens a data directory and recovers its engine in one
// step: load the newest snapshot, replay the WAL suffix, return the
// engine ready to serve plus the store for further
// ApplyLogged/Checkpoint calls. so tunes the durable layer (the zero
// value is the default). For a fresh directory it returns ErrNoSnapshot
// (wrapped) with a nil engine and the store still OPEN, so the caller
// seeds without re-scanning the directory:
//
//	eng, st, rs, err := kbtable.OpenDirOpts(dir, opts, kbtable.StoreOptions{})
//	if errors.Is(err, kbtable.ErrNoSnapshot) {
//		eng, _ = kbtable.NewEngine(g, opts)
//		_, err = eng.Checkpoint(st)
//	}
//
// Any other error closes the store before returning.
func OpenDirOpts(dir string, opts EngineOptions, so StoreOptions) (*Engine, *Store, RecoverStats, error) {
	s, err := OpenStoreOpts(dir, so)
	if err != nil {
		return nil, nil, RecoverStats{}, err
	}
	eng, rs, err := s.Recover(opts)
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			return nil, s, rs, err
		}
		s.Close()
		return nil, nil, rs, err
	}
	return eng, s, rs, nil
}
