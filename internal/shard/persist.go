package shard

import (
	"fmt"
	"io"

	"kbtable/internal/index"
	"kbtable/internal/kg"
)

// Persistence hooks for the durable snapshot store (internal/store):
// an engine is fully determined by its graph snapshot, the ownership
// table (which for N > 1 CANNOT be recomputed from the graph — a
// tombstoned node is retyped, so its recorded assignment is the only
// witness of its owner), the per-shard indexes, and the per-shard
// epochs. PageRank is a pure function of the graph: the loader computes
// it once for every shard's index.Load and FromParts, which keeps one
// copy of the dictionary every shard file carries and tokenizes the graph
// against it once, into the engine's corpus.

// Owners returns a copy of the node → shard ownership table, or nil for a
// one-shard engine: its table is all zeros, so nothing needs persisting
// and FromParts re-derives it.
func (e *Engine) Owners() []uint8 {
	if e.n == 1 {
		return nil
	}
	out := make([]uint8, len(e.owner))
	copy(out, e.owner)
	return out
}

// EncodeShard serializes shard si's index in the index wire format.
func (e *Engine) EncodeShard(si int, w io.Writer) error {
	u, err := e.resident(si)
	if err != nil {
		return err
	}
	return u.ix.Encode(w)
}

// FromParts reassembles an engine from persisted state: the graph, the
// ownership table (nil with one index = the all-zero table), one loaded
// index per shard, and the shards' update epochs (nil = all zero). The
// result behaves identically to the engine
// that was saved: searches, plans and further ApplyDelta chains produce
// the same bytes. opts must carry the build-time options (D, UniformPR,
// Synonyms); RootFilter/DirtyRoots/PageRank stay reserved for the shard
// layer but opts.PageRank, the vector the indexes were loaded with (nil:
// recomputed from the graph when not uniform). Every index must carry
// shard 0's dictionary, which then serves them all: the engine's corpus is
// the graph tokenized against it (index.CorpusOf), and a dictionary that
// lacks a word of the graph is refused.
func FromParts(g *kg.Graph, owner []uint8, ixs []*index.Index, epochs []uint64, opts index.Options) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: nil graph")
	}
	n := len(ixs)
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", n, MaxShards)
	}
	if opts.RootFilter != nil || opts.DirtyRoots != nil {
		return nil, fmt.Errorf("shard: RootFilter/DirtyRoots are managed by the shard layer")
	}
	if owner == nil && n == 1 {
		owner = make([]uint8, g.NumNodes())
	}
	if len(owner) != g.NumNodes() {
		return nil, fmt.Errorf("shard: ownership table covers %d of %d nodes", len(owner), g.NumNodes())
	}
	for v, o := range owner {
		if int(o) >= n {
			return nil, fmt.Errorf("shard: node %d owned by shard %d of %d", v, o, n)
		}
	}
	if epochs != nil && len(epochs) != n {
		return nil, fmt.Errorf("shard: %d epochs for %d shards", len(epochs), n)
	}
	if opts.D == 0 {
		opts.D = 3
	}
	e := &Engine{g: g, n: n, opts: opts, owner: owner, pr: opts.PageRank}
	e.opts.PageRank = nil
	if e.pr == nil {
		e.pr = PageRankOf(g, opts)
	}
	e.units = make([]*unit, n)
	for si, ix := range ixs {
		if ix == nil {
			return nil, fmt.Errorf("shard: shard %d has no index", si)
		}
		if ix.D() != opts.D {
			return nil, fmt.Errorf("shard: shard %d index built with d=%d, engine wants d=%d", si, ix.D(), opts.D)
		}
		if ix.Graph() != g {
			return nil, fmt.Errorf("shard: shard %d index bound to a different graph", si)
		}
		if si > 0 && !ix.Dict().Equal(ixs[0].Dict()) {
			return nil, fmt.Errorf("shard: shard %d dictionary differs from shard 0's; rebuild the snapshot from its graph", si)
		}
		u := &unit{ix: ix.Rebind(g, nil, ixs[0].Dict())}
		if epochs != nil {
			u.epoch = epochs[si]
		}
		e.units[si] = u
	}
	var err error
	if e.corpus, err = index.CorpusOf(g, ixs[0].Dict()); err != nil {
		return nil, fmt.Errorf("shard: %w; rebuild the snapshot from its graph", err)
	}
	return e, nil
}
