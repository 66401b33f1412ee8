package shard

import (
	"context"
	"fmt"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
)

// Cluster scatter/gather: one shard's contribution to a query in a
// shard-table-independent wire form, plus partial engines that host only
// a subset of a cluster's shards.
//
// Exactness across process boundaries follows the same Theorem-5 argument
// as the in-process scatter: a shard's contribution is fully described by
// its per-pattern per-root partial aggregates (search.RootAgg) keyed by
// pattern CONTENT (the path patterns' type/attr sequences), never by
// shard-local interned PatternIDs. A coordinator holding content-identical
// per-shard indexes resolves the wire paths in its own tables (fromWire)
// and runs the canonical gather fold — answers are bit-identical to a
// single-node run. Scores travel as float64 and Go's encoding/json
// round-trips float64 exactly, so serialization adds no drift.

// WirePath is one root-to-keyword path pattern in content form
// (core.PathPattern without the interning table).
type WirePath struct {
	Types   []int32 `json:"types"`
	Attrs   []int32 `json:"attrs,omitempty"`
	EdgeEnd bool    `json:"edge_end,omitempty"`
}

// WireRootAgg is one candidate root's partial aggregate of a pattern:
// the exact per-root decomposition of the pattern score (Theorem 5).
type WireRootAgg struct {
	Root  int64   `json:"root"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// WirePattern is one tree pattern discovered on one shard: its member
// path patterns (index i matches query keyword i) and its per-root
// partial aggregates in ascending root order.
type WirePattern struct {
	Paths    []WirePath    `json:"paths"`
	RootAggs []WireRootAgg `json:"root_aggs,omitempty"`
}

// WirePlanStats is search.PlanStats in wire form: the prepare-stage
// statistics a shard's planner probe produced. Per-shard stats merge in
// ascending shard order exactly as the in-process probe merges them.
type WirePlanStats struct {
	CandidateRoots int   `json:"candidate_roots"`
	RootTypes      int   `json:"root_types"`
	PatternSpace   int64 `json:"pattern_space"`
	Frontier       int64 `json:"frontier"`
	PostingRoots   []int `json:"posting_roots,omitempty"`
}

// WirePartial is one shard's complete scatter output: every pattern the
// shard discovered (retention is unbounded during a scatter — the global
// cut happens at the gather) plus the per-shard statistics the gather
// folds.
type WirePartial struct {
	Shard    int           `json:"shard"`
	Patterns []WirePattern `json:"patterns"`

	// QueryStats counters the gather sums across shards.
	CandidateRoots int   `json:"candidate_roots"`
	SampledRoots   int   `json:"sampled_roots,omitempty"`
	TreesFound     int64 `json:"trees_found"`
	EmptyChecked   int64 `json:"empty_checked,omitempty"`
	BoundPruned    int64 `json:"bound_pruned,omitempty"`
	// PrepareNS is the shard's own prepare-stage wall clock; the gather
	// charges the slowest shard's prepare to the merged Prepare stage.
	PrepareNS int64 `json:"prepare_ns,omitempty"`
	// PlanStats are the shard's prepare statistics, folded into the
	// result plan for observability (non-Auto plans only).
	PlanStats WirePlanStats `json:"plan_stats"`
}

// toWirePlanStats lowers planner-probe statistics to wire form.
func toWirePlanStats(st search.PlanStats) WirePlanStats {
	return WirePlanStats{
		CandidateRoots: st.CandidateRoots,
		RootTypes:      st.RootTypes,
		PatternSpace:   st.PatternSpace,
		Frontier:       st.Frontier,
		PostingRoots:   st.PostingRoots,
	}
}

// fromWirePlanStats restores planner-probe statistics from wire form.
func fromWirePlanStats(w WirePlanStats) search.PlanStats {
	return search.PlanStats{
		CandidateRoots: w.CandidateRoots,
		RootTypes:      w.RootTypes,
		PatternSpace:   w.PatternSpace,
		Frontier:       w.Frontier,
		PostingRoots:   w.PostingRoots,
	}
}

// resident returns shard si's unit or an error when this engine does not
// host it.
func (e *Engine) resident(si int) (*unit, error) {
	if si < 0 || si >= e.n {
		return nil, fmt.Errorf("shard: shard %d out of range [0,%d)", si, e.n)
	}
	u := e.units[si]
	if u == nil {
		return nil, fmt.Errorf("shard: shard %d is not resident on this engine", si)
	}
	return u, nil
}

// AnyIndex returns the first resident shard's index — the dictionary
// and tokenizer source for facade surfaces on partial engines (every
// shard shares the full corpus dictionary).
func (e *Engine) AnyIndex() *index.Index {
	for _, u := range e.units {
		if u != nil {
			return u.ix
		}
	}
	return nil
}

// Resident reports whether shard si's index is hosted by this engine.
func (e *Engine) Resident(si int) bool {
	return si >= 0 && si < e.n && e.units[si] != nil
}

// Complete reports whether every shard is resident (a full engine, able
// to search and gather; partial engines only serve per-shard legs).
func (e *Engine) Complete() bool {
	for _, u := range e.units {
		if u == nil {
			return false
		}
	}
	return true
}

// NewPartialEngine builds an engine hosting only the owned subset of an
// n-shard partition — a cluster owner node's view. The ownership hash,
// PageRank vector and per-shard root filters are computed over the full
// graph exactly as NewEngine computes them, so each resident shard's
// index is content-identical to the corresponding shard of a full n-way
// engine over the same graph.
func NewPartialEngine(g *kg.Graph, n int, owned []int, opts index.Options) (*Engine, error) {
	if len(owned) == 0 {
		return nil, fmt.Errorf("shard: partial engine owns no shards")
	}
	seen := map[int]bool{}
	for _, si := range owned {
		if si < 0 || si >= n {
			return nil, fmt.Errorf("shard: owned shard %d out of range [0,%d)", si, n)
		}
		if seen[si] {
			return nil, fmt.Errorf("shard: owned shard %d listed twice", si)
		}
		seen[si] = true
	}
	return build(g, n, owned, opts)
}

// ProbeShard runs the prepare-only planner probe on one resident shard
// and returns its statistics in wire form — one leg of a scattered
// cluster probe.
func (e *Engine) ProbeShard(ctx context.Context, si int, query string, opts search.Options) (WirePlanStats, error) {
	u, err := e.resident(si)
	if err != nil {
		return WirePlanStats{}, err
	}
	st, err := search.PlanProbe(ctx, u.ix, query, opts)
	if err != nil {
		return WirePlanStats{}, err
	}
	return toWirePlanStats(st), nil
}

// ScatterShard runs one resident shard's leg of a resolved-algorithm
// scatter and returns it in wire form. The options lowering is exactly
// the in-process scatter's (unbounded retention, CollectRootAggs, split
// worker budget), so the partial a remote owner produces is the partial
// the coordinator's own scatter would have produced for that shard. Auto
// must be resolved by the coordinator first.
func (e *Engine) ScatterShard(ctx context.Context, si int, algo search.Algo, query string, opts search.Options) (*WirePartial, error) {
	if algo == search.AlgoAuto {
		return nil, fmt.Errorf("shard: scatter requires a resolved algorithm, not Auto")
	}
	u, err := e.resident(si)
	if err != nil {
		return nil, err
	}
	res, err := search.Execute(ctx, u.ix, query, algo, e.scatterOptions(opts))
	if err != nil {
		return nil, err
	}
	table := u.ix.PatternTable()
	p := &WirePartial{
		Shard:          si,
		Patterns:       make([]WirePattern, 0, len(res.Patterns)),
		CandidateRoots: res.Stats.CandidateRoots,
		SampledRoots:   res.Stats.SampledRoots,
		TreesFound:     res.Stats.TreesFound,
		EmptyChecked:   res.Stats.EmptyChecked,
		BoundPruned:    res.Stats.BoundPruned,
		PrepareNS:      int64(res.Stats.Stages.Prepare),
		PlanStats:      toWirePlanStats(res.Plan.Stats),
	}
	for _, rp := range res.Patterns {
		wp := WirePattern{
			Paths:    make([]WirePath, len(rp.Pattern.Paths)),
			RootAggs: make([]WireRootAgg, len(rp.RootAggs)),
		}
		for i, pid := range rp.Pattern.Paths {
			pp := table.Get(pid)
			w := WirePath{EdgeEnd: pp.EdgeEnd, Types: make([]int32, len(pp.Types))}
			for j, t := range pp.Types {
				w.Types[j] = int32(t)
			}
			if len(pp.Attrs) > 0 {
				w.Attrs = make([]int32, len(pp.Attrs))
				for j, a := range pp.Attrs {
					w.Attrs[j] = int32(a)
				}
			}
			wp.Paths[i] = w
		}
		for i, ra := range rp.RootAggs {
			wp.RootAggs[i] = WireRootAgg{Root: int64(ra.Root), Sum: ra.Agg.Sum, Max: ra.Agg.Max, Count: ra.Agg.Count}
		}
		p.Patterns = append(p.Patterns, wp)
	}
	return p, nil
}

// fromWire checks a remote partial for resident shard si and decodes it
// into scatter form. Its producer holds an index content-identical to the
// shard's, so every path it names is already interned in the shard's
// pattern table and resolves by Lookup; nothing from the network is ever
// interned into a published table. The partial is rejected — and the
// caller runs the leg locally — when it is labeled for another shard,
// names a path the table does not hold, has a pattern whose path count is
// not the query's keyword count, lists a pattern twice (its roots would
// fold twice) or without root partials (its share would vanish), or lists
// roots that do not strictly ascend or that another shard owns.
func (e *Engine) fromWire(si int, query string, p *WirePartial) (shardOut, error) {
	if p == nil || p.Shard != si {
		return shardOut{}, fmt.Errorf("shard: partial for shard %d is missing or mislabeled", si)
	}
	ix := e.units[si].ix
	table := ix.PatternTable()
	words, surfaces := search.ResolveQuery(ix, query)
	var pp core.PathPattern // Lookup scratch; the table never retains it
	patterns := make([]search.RankedPattern, len(p.Patterns))
	seen := make(map[string]bool, len(p.Patterns))
	for i, wp := range p.Patterns {
		if len(wp.Paths) != len(words) {
			return shardOut{}, fmt.Errorf("shard: shard %d pattern %d has %d paths for %d keywords", si, i, len(wp.Paths), len(words))
		}
		tp := core.TreePattern{Paths: make([]core.PatternID, len(wp.Paths))}
		for j, w := range wp.Paths {
			pp.EdgeEnd, pp.Types, pp.Attrs = w.EdgeEnd, pp.Types[:0], pp.Attrs[:0]
			for _, t := range w.Types {
				pp.Types = append(pp.Types, kg.TypeID(t))
			}
			for _, a := range w.Attrs {
				pp.Attrs = append(pp.Attrs, kg.AttrID(a))
			}
			id, ok := table.Lookup(pp)
			if !ok {
				return shardOut{}, fmt.Errorf("shard: shard %d pattern %d names a path pattern the shard does not hold", si, i)
			}
			tp.Paths[j] = id
		}
		key := tp.Key() // paths resolve in one table: equal IDs, equal content
		if seen[key] {
			return shardOut{}, fmt.Errorf("shard: shard %d pattern %d is listed twice", si, i)
		}
		seen[key] = true
		if len(wp.RootAggs) == 0 {
			return shardOut{}, fmt.Errorf("shard: shard %d pattern %d has no root partials", si, i)
		}
		aggs := make([]search.RootAgg, len(wp.RootAggs))
		for x, ra := range wp.RootAggs {
			if ra.Root < 0 || ra.Root >= int64(len(e.owner)) || int(e.owner[ra.Root]) != si || x > 0 && ra.Root <= wp.RootAggs[x-1].Root {
				return shardOut{}, fmt.Errorf("shard: shard %d pattern %d lists root %d out of order or outside the shard", si, i, ra.Root)
			}
			aggs[x] = search.RootAgg{Root: kg.NodeID(ra.Root), Agg: core.PatternScore{Sum: ra.Sum, Max: ra.Max, Count: ra.Count}}
		}
		patterns[i] = search.RankedPattern{Pattern: tp, RootAggs: aggs}
	}
	return shardOut{
		patterns: patterns,
		stats: search.QueryStats{
			Surfaces:       surfaces,
			Words:          words,
			CandidateRoots: p.CandidateRoots,
			SampledRoots:   p.SampledRoots,
			TreesFound:     p.TreesFound,
			EmptyChecked:   p.EmptyChecked,
			BoundPruned:    p.BoundPruned,
			Stages:         search.StageTimings{Prepare: time.Duration(p.PrepareNS)},
		},
		plan: search.Plan{Stats: fromWirePlanStats(p.PlanStats)},
	}, nil
}
