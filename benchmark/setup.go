package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"kbtable"
)

// storeOptions is the flush policy of every durable store the benchmark
// opens: fsync on commit, group commit with at most 128 records per fsync
// held open for at most 1 ms.
var storeOptions = kbtable.StoreOptions{GroupCommitMaxBatch: 128, GroupCommitMaxDelay: time.Millisecond}

// setUp is one pass of the set-up phase, identical in every workload:
// generate the corpus, build the engine, checkpoint it into a fresh data
// directory, log the WAL tail, close, and recover from the directory. The
// recovered engine is the one that serves.
type setUp struct {
	dir    string
	corpus *corpus
	built  *kbtable.Engine // before the tail: what a follower node starts from
	eng    *kbtable.Engine // recovered: snapshot load + WAL replay
	store  *kbtable.Store  // open on dir
	tail   []kbtable.Update
	rs     kbtable.RecoverStats

	totalS, buildS, recoverS float64
	kbBytes, snapshotBytes   int64
}

func runSetUp(cfg runConfig, dir string) (*setUp, error) {
	w, sc := cfg.workload, cfg.scale
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	entities := sc.readEntities
	if w.rw {
		entities = sc.rwEntities
	}
	c, err := newCorpus(entities, sc.types)
	if err != nil {
		return nil, err
	}
	g, err := c.graph(dir)
	if err != nil {
		return nil, err
	}
	su := &setUp{dir: dir + "/data", corpus: c, kbBytes: int64(len(c.kb))}

	t := time.Now()
	su.built, err = kbtable.NewEngine(g, kbtable.EngineOptions{D: indexD, Shards: w.shards})
	if err != nil {
		return nil, err
	}
	su.buildS = time.Since(t).Seconds()

	st, err := kbtable.OpenStoreOpts(su.dir, storeOptions)
	if err != nil {
		return nil, err
	}
	if _, err := su.built.Checkpoint(st); err != nil {
		st.Close()
		return nil, err
	}
	su.snapshotBytes = dirBytes(su.dir)
	su.tail = c.tailUpdates(sc.tailStructural, sc.tailRetexts)
	tailed := su.built
	for i, u := range su.tail {
		if tailed, _, err = tailed.ApplyLogged(st, u); err != nil {
			st.Close()
			return nil, fmt.Errorf("tail update %d: %w", i, err)
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	t = time.Now()
	su.eng, su.store, su.rs, err = kbtable.OpenDirOpts(su.dir, kbtable.EngineOptions{}, storeOptions)
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", su.dir, err)
	}
	su.recoverS = time.Since(t).Seconds()
	su.totalS = time.Since(start).Seconds()
	if want := uint64(len(su.tail)); su.eng.Seq() != want || su.rs.Replayed != len(su.tail) {
		su.store.Close()
		return nil, fmt.Errorf("recovered seq %d after replaying %d records, want %d", su.eng.Seq(), su.rs.Replayed, want)
	}
	return su, nil
}

// release closes the store and drops the engines, so that a set-up pass
// that only contributed timings does not stay in the heap.
func (su *setUp) release() {
	if su.store != nil {
		su.store.Close()
	}
	*su = setUp{totalS: su.totalS, buildS: su.buildS, recoverS: su.recoverS,
		kbBytes: su.kbBytes, snapshotBytes: su.snapshotBytes}
}

// oracle builds the engine answers are checked against: unsharded and
// serial, from scratch, over the graph the recovered engine serves.
func oracle(g *kbtable.Graph) (*kbtable.Engine, error) {
	return kbtable.NewEngine(g, kbtable.EngineOptions{D: indexD, Shards: 1, Workers: 1})
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// searchOptions are the engine options one server-side search runs under.
var searchOptions = kbtable.SearchOptions{K: searchK, Algorithm: kbtable.Auto, MaxRowsPerTable: searchRows}

// oracleDigests answers the first n queries on the oracle engine.
func oracleDigests(ctx context.Context, eng *kbtable.Engine, queries []string, n int) ([]uint64, error) {
	if n > len(queries) {
		n = len(queries)
	}
	out := make([]uint64, n)
	for i, q := range queries[:n] {
		answers, err := eng.SearchContext(ctx, q, searchOptions)
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", q, err)
		}
		out[i] = digestAnswers(answers)
	}
	return out, nil
}
