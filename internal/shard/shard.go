// Package shard is the engine: it partitions a knowledge base's candidate
// roots across N >= 1 independent index shards and answers queries over
// them. N = 1 is the unpartitioned engine — one unfiltered index, queries
// run on its executor directly with the caller's k, so the top-k bound
// pushdown prunes — and N > 1 answers scatter-gather. That choice is made
// here, from the shard count, and nowhere else.
//
// The unit of partitioning is the candidate root: the paper's three
// algorithms all aggregate a tree pattern from per-root subtree sets
// (Theorem 5 decomposes every pattern score per candidate root), and a
// valid subtree lives entirely under its root, so assigning each root —
// with read access to its d-neighborhood — to exactly one shard splits a
// query into N disjoint sub-queries. Each shard runs the existing
// serial/parallel executors over a root-filtered index; the gather stage
// re-folds per-root partial aggregates in ascending root order, which
// reproduces the one-shard engine's two-level fold bit for bit (see
// search.Options.CollectRootAggs). Each shard's leg lists its patterns in
// content order, and the same tree pattern found on two shards — its roots
// hash apart — merges at the gather into ONE pattern with one table.
//
// Roots are assigned by a type-aware hash of (τ(v), v), fixed at node
// creation time and never reassigned (removal retypes tombstones, so the
// assignment is recorded, not recomputed). Updates route to the shards
// owning dirty roots; untouched shards rebind to the new snapshot without
// copying postings, and each shard keeps its own epoch counter.
//
// One probe (PlanStats) and one scatter-gather body (scatterGather, under
// Search) serve every query that is not a one-shard
// engine's direct execution. A leg runs either on the resident shard or,
// given Legs, on a cluster owner node. A remote partial crosses the wire
// in content form (WirePartial), as one binary frame whose scores are
// their float64 bits (AppendPartial), and is checked before the gather. A
// failed or rejected leg re-runs on the resident shard. The gather adds
// per-root partials under the same fold wherever each leg ran, so a
// cluster answers bit-identically to a single process.
//
// Shards share the immutable *kg.Graph and one tokenized corpus per engine
// epoch (index.Corpus, whose dictionary is Dict): the engine tokenizes the
// graph once per build and an update's touched nodes once, and a query
// resolves once, at the engine. Because every shard is otherwise a
// self-contained index (own pattern table) and the gather protocol only
// exchanges per-root aggregates and path contents, the same merge serves
// legs behind process or machine boundaries.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
	"kbtable/internal/text"
)

// MaxShards bounds the shard count (ownership is stored in one byte per
// node).
const MaxShards = 256

// ownerOf assigns a node to a shard by a type-aware hash: the node's type
// participates so that IDs clustered by insertion order (generators emit
// whole types consecutively) still spread evenly. The splitmix64 finalizer
// scrambles the combined key.
func ownerOf(t kg.TypeID, v kg.NodeID, n int) uint8 {
	x := uint64(uint32(t))<<32 | uint64(uint32(v))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint8(x % uint64(n))
}

// unit is one shard: a root-filtered path index and the shard's epoch
// (bumped whenever an update splices this shard's postings).
type unit struct {
	ix    *index.Index
	epoch uint64
}

// Engine is a sharded knowledge-base engine over one graph snapshot.
// Engines are immutable: searches may run concurrently, and ApplyDelta
// returns a new Engine while the receiver keeps serving its snapshot.
type Engine struct {
	g      *kg.Graph
	n      int
	opts   index.Options // base build options; RootFilter/DirtyRoots/PageRank are per-call
	owner  []uint8       // node -> shard, fixed at node creation
	pr     []float64     // PageRank of g, shared by every shard (nil under UniformPR)
	corpus *index.Corpus // tokenized text of g and its dictionary, shared by every shard
	units  []*unit
}

// NewEngine partitions g's roots across n >= 1 shards and builds the
// per-shard indexes in parallel. opts applies to every shard;
// opts.RootFilter, opts.DirtyRoots, opts.PageRank and opts.Corpus are
// reserved for the shard layer itself. PageRank and the corpus
// (whole-graph properties) are computed once and shared.
func NewEngine(g *kg.Graph, n int, opts index.Options) (*Engine, error) {
	all := make([]int, n)
	for si := range all {
		all[si] = si
	}
	return build(g, n, all, opts)
}

// build constructs an n-shard engine with only the owned shards resident.
func build(g *kg.Graph, n int, owned []int, opts index.Options) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: nil graph")
	}
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", n, MaxShards)
	}
	if opts.RootFilter != nil || opts.DirtyRoots != nil || opts.PageRank != nil || opts.Corpus != nil {
		return nil, fmt.Errorf("shard: RootFilter/DirtyRoots/PageRank/Corpus are managed by the shard layer")
	}
	if opts.D == 0 {
		opts.D = 3
	}
	owner := make([]uint8, g.NumNodes())
	for v := range owner {
		owner[v] = ownerOf(g.Type(kg.NodeID(v)), kg.NodeID(v), n)
	}
	e := &Engine{g: g, n: n, opts: opts, owner: owner, pr: PageRankOf(g, opts), corpus: index.NewCorpus(g, opts.Synonyms)}

	// Build the shards in parallel; each build also parallelizes
	// internally, so split the worker budget across shards.
	perShard := e.splitWorkers(opts.Workers)
	e.units = make([]*unit, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for _, si := range owned {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			so := opts
			so.Workers = perShard
			so.RootFilter = e.filter(si)
			so.PageRank, so.Corpus = e.pr, e.corpus
			ix, err := index.Build(g, so)
			if err != nil {
				errs[si] = err
				return
			}
			e.units[si] = &unit{ix: ix}
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	return e, nil
}

// scatter runs f once per shard, concurrently: shard 0 on the calling
// goroutine, the others on their own — so a one-shard engine spawns
// nothing.
func (e *Engine) scatter(f func(si int)) {
	var wg sync.WaitGroup
	for si := 1; si < e.n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			f(si)
		}(si)
	}
	f(0)
	wg.Wait()
}

// splitWorkers divides a per-query worker budget (0 = GOMAXPROCS) across
// the N-way shard scatter.
func (e *Engine) splitWorkers(w int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w = w / e.n; w < 1 {
		w = 1
	}
	return w
}

// filter returns the ownership test for shard si over the engine's owner
// table, or nil on a one-shard engine: every root is owned, and an index
// built without a filter is the plain, unpartitioned index. The closure
// captures the table by reference; owner tables are append-only per
// engine, so concurrent readers are safe.
func (e *Engine) filter(si int) func(kg.NodeID) bool {
	if e.n == 1 {
		return nil
	}
	owner := e.owner
	return func(v kg.NodeID) bool {
		return int(v) < len(owner) && owner[v] == uint8(si)
	}
}

// PageRankOf is g's PageRank vector under opts, nil under UniformPR: the
// one vector an engine shares across its shards and hands to index.Load.
func PageRankOf(g *kg.Graph, opts index.Options) []float64 {
	if opts.UniformPR {
		return nil
	}
	return rank.PageRank(g, rank.Options{})
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return e.n }

// Graph returns the engine's graph snapshot.
func (e *Engine) Graph() *kg.Graph { return e.g }

// D returns the height threshold shared by every shard.
func (e *Engine) D() int { return e.opts.D }

// PageRank returns the PageRank vector every shard scores with (nil under
// UniformPR); callers must not modify it.
func (e *Engine) PageRank() []float64 { return e.pr }

// Dict returns the dictionary every shard indexes with (read-only).
func (e *Engine) Dict() *text.Dict { return e.corpus.Dict() }

// Index returns shard si's path index (read-only), or nil when the
// shard is not resident on this engine (partial engines).
func (e *Engine) Index(si int) *index.Index {
	if u := e.units[si]; u != nil {
		return u.ix
	}
	return nil
}

// Owner returns the shard owning node v.
func (e *Engine) Owner(v kg.NodeID) int { return int(e.owner[v]) }

// Epochs returns each shard's update epoch: the number of updates that
// actually spliced that shard's postings since the engine chain began.
func (e *Engine) Epochs() []uint64 {
	out := make([]uint64, e.n)
	for i, u := range e.units {
		if u != nil {
			out[i] = u.epoch
		}
	}
	return out
}

// ShardStat describes one shard for monitoring.
type ShardStat struct {
	Roots   int    // live nodes owned by the shard
	Entries int64  // postings in the shard's index
	Epoch   uint64 // update epoch
}

// Stats returns per-shard statistics; roots are counted over live nodes.
func (e *Engine) Stats() []ShardStat {
	out := make([]ShardStat, e.n)
	for si, u := range e.units {
		if u == nil {
			continue // not resident (partial engine)
		}
		out[si].Entries = u.ix.Stats().NumEntries
		out[si].Epoch = u.epoch
	}
	for v := 0; v < e.g.NumNodes(); v++ {
		if !e.g.Removed(kg.NodeID(v)) {
			out[e.owner[v]].Roots++
		}
	}
	return out
}
