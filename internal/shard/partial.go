package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
	"kbtable/internal/wire"
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
// single-node run. Scores cross the wire as their float64 bits
// (AppendPartial), so serialization adds no drift.

// WirePath is one root-to-keyword path pattern in content form: a
// core.PathPattern holds its type/attr sequence and no interned ID.
type WirePath = core.PathPattern

// WireRootAgg is one candidate root's partial aggregate of a pattern:
// the exact per-root decomposition of the pattern score (Theorem 5).
type WireRootAgg = search.RootAgg

// WirePattern is one tree pattern discovered on one shard: its member
// path patterns as indices into WirePartial.Paths (index i matches query
// keyword i) and its per-root partial aggregates in ascending root order.
type WirePattern struct {
	Paths    []int32
	RootAggs []WireRootAgg
}

// WirePlanStats is search.PlanStats in wire form: the prepare-stage
// statistics a shard's planner probe produced. Per-shard stats merge in
// ascending shard order exactly as the in-process probe merges them.
type WirePlanStats struct {
	CandidateRoots int   `json:"candidate_roots"`
	RootTypes      int   `json:"root_types"`
	PatternSpace   int64 `json:"pattern_space"`
	Frontier       int64 `json:"frontier"`
}

// WirePartial is one shard's complete scatter output: every pattern the
// shard discovered (a leg ranks nothing — the global cut happens at the
// gather) plus the per-shard statistics the gather folds. Patterns ascend
// by content, in core.TreePattern.CompareContent order, each listed once.
type WirePartial struct {
	Shard int
	// Paths is the path table: each distinct path the patterns name, once.
	Paths    []WirePath
	Patterns []WirePattern

	// QueryStats counters the gather sums across shards.
	CandidateRoots int
	SampledRoots   int
	TreesFound     int64
	EmptyChecked   int64
	BoundPruned    int64
	// PrepareNS is the shard's own prepare-stage wall clock; the gather
	// charges the slowest shard's prepare to the merged Prepare stage.
	PrepareNS int64
	// PlanStats are the shard's prepare statistics, folded into the
	// result plan for observability (non-Auto plans only).
	PlanStats WirePlanStats
}

// toWirePlanStats lowers planner-probe statistics to wire form.
func toWirePlanStats(st search.PlanStats) WirePlanStats {
	return WirePlanStats{
		CandidateRoots: st.CandidateRoots,
		RootTypes:      st.RootTypes,
		PatternSpace:   st.PatternSpace,
		Frontier:       st.Frontier,
	}
}

// fromWirePlanStats restores planner-probe statistics from wire form.
func fromWirePlanStats(w WirePlanStats) search.PlanStats {
	return search.PlanStats{
		CandidateRoots: w.CandidateRoots,
		RootTypes:      w.RootTypes,
		PatternSpace:   w.PatternSpace,
		Frontier:       w.Frontier,
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
	words, _ := search.ResolveQuery(e.Dict(), query)
	st, err := search.PlanProbe(ctx, u.ix, words, opts)
	if err != nil {
		return WirePlanStats{}, err
	}
	return toWirePlanStats(st), nil
}

// ScatterShard runs one resident shard's leg of a resolved-algorithm
// scatter and returns it in wire form. It runs the in-process scatter's
// leg (search.Scatter on a split worker budget), so the partial a remote
// owner produces is the partial the coordinator's own scatter would have
// produced for that shard, patterns in ascending content order. Auto must
// be resolved by the coordinator first; the query resolves once, here.
func (e *Engine) ScatterShard(ctx context.Context, si int, algo search.Algo, query string, opts search.Options) (*WirePartial, error) {
	if algo == search.AlgoAuto {
		return nil, fmt.Errorf("shard: scatter requires a resolved algorithm, not Auto")
	}
	u, err := e.resident(si)
	if err != nil {
		return nil, err
	}
	words, surfaces := search.ResolveQuery(e.Dict(), query)
	res, err := e.leg(ctx, si, words, surfaces, algo, opts)
	if err != nil {
		return nil, err
	}
	table := u.ix.PatternTable()
	p := &WirePartial{
		Shard:          si,
		CandidateRoots: res.Stats.CandidateRoots,
		SampledRoots:   res.Stats.SampledRoots,
		TreesFound:     res.Stats.TreesFound,
		EmptyChecked:   res.Stats.EmptyChecked,
		BoundPruned:    res.Stats.BoundPruned,
		PrepareNS:      int64(res.Stats.Stages.Prepare),
		PlanStats:      toWirePlanStats(res.Plan.Stats),
	}
	slot := make(map[core.PatternID]int32) // path-table index of each distinct path
	for _, rp := range res.Patterns {
		wp := WirePattern{Paths: make([]int32, len(rp.Pattern.Paths)), RootAggs: rp.RootAggs}
		for i, pid := range rp.Pattern.Paths {
			s, ok := slot[pid]
			if !ok {
				s = int32(len(p.Paths))
				slot[pid] = s
				pp := table.Get(pid) // copied: the table's slices never leave it
				pp.Types, pp.Attrs = append([]kg.TypeID(nil), pp.Types...), append([]kg.AttrID(nil), pp.Attrs...)
				p.Paths = append(p.Paths, pp)
			}
			wp.Paths[i] = s
		}
		p.Patterns = append(p.Patterns, wp)
	}
	return p, nil
}

// fromWire checks a remote partial for resident shard si, answering a
// query of keywords distinct words, and decodes it into scatter form. Its
// producer holds an index content-identical to the shard's, so every path it names is already interned in the shard's
// pattern table and resolves by Lookup; nothing from the network is ever
// interned into a published table. The partial is rejected — and the
// caller runs the leg locally — when it is labeled for another shard,
// names a path the table does not hold or one past its path table, has a
// pattern whose path count is not the query's keyword count, lists
// patterns out of strictly ascending content order (the gather's merge
// order; a repeat would fold twice) or one without root partials (its
// share would vanish), lists roots that do not strictly ascend or that
// another shard owns, or has a root partial no leg produces: a count
// below one, or a negative or non-finite score.
func (e *Engine) fromWire(si, keywords int, p *WirePartial) (shardOut, error) {
	if p == nil || p.Shard != si {
		return shardOut{}, fmt.Errorf("shard: partial for shard %d is missing or mislabeled", si)
	}
	table := e.units[si].ix.PatternTable()
	ids := make([]core.PatternID, len(p.Paths))
	for j, w := range p.Paths {
		id, ok := table.Lookup(w)
		if !ok {
			return shardOut{}, fmt.Errorf("shard: shard %d path %d is a path pattern the shard does not hold", si, j)
		}
		ids[j] = id
	}
	patterns := make([]search.RankedPattern, len(p.Patterns))
	for i, wp := range p.Patterns {
		if len(wp.Paths) != keywords {
			return shardOut{}, fmt.Errorf("shard: shard %d pattern %d has %d paths for %d keywords", si, i, len(wp.Paths), keywords)
		}
		tp := core.TreePattern{Paths: make([]core.PatternID, len(wp.Paths))}
		for j, x := range wp.Paths {
			if x < 0 || int(x) >= len(ids) {
				return shardOut{}, fmt.Errorf("shard: shard %d pattern %d names path %d of a %d-path table", si, i, x, len(ids))
			}
			tp.Paths[j] = ids[x]
		}
		if i > 0 && patterns[i-1].Pattern.CompareContent(table, tp, table) >= 0 {
			return shardOut{}, fmt.Errorf("shard: shard %d pattern %d is out of content order", si, i)
		}
		if len(wp.RootAggs) == 0 {
			return shardOut{}, fmt.Errorf("shard: shard %d pattern %d has no root partials", si, i)
		}
		for x, ra := range wp.RootAggs {
			if ra.Root < 0 || int(ra.Root) >= len(e.owner) || int(e.owner[ra.Root]) != si || x > 0 && ra.Root <= wp.RootAggs[x-1].Root {
				return shardOut{}, fmt.Errorf("shard: shard %d pattern %d lists root %d out of order or outside the shard", si, i, ra.Root)
			}
			if a := ra.Agg; a.Count < 1 || !(a.Sum >= 0 && a.Max >= 0) || math.IsInf(a.Sum, 0) || math.IsInf(a.Max, 0) {
				return shardOut{}, fmt.Errorf("shard: shard %d pattern %d has an impossible partial at root %d", si, i, ra.Root)
			}
		}
		patterns[i] = search.RankedPattern{Pattern: tp, RootAggs: wp.RootAggs}
	}
	return shardOut{
		patterns: patterns,
		stats: search.QueryStats{
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

// A scatter frame is "KBP1", the payload length (uvarint), the payload and
// CRC-32C(payload) (4 bytes LE). The payload — shard, seq, path table,
// patterns, counters, plan statistics — is varints but for the float64
// bits of each root partial's Sum and Max; README.md ("Posting storage &
// wire format") tabulates it.
const partialMagic = "KBP1"

// AppendPartial appends p, produced on a node whose applied WAL cursor is
// seq, to dst as one scatter frame.
func AppendPartial(dst []byte, seq uint64, p *WirePartial) []byte {
	dst = append(dst, partialMagic...)
	at := len(dst)
	dst = append(dst, make([]byte, binary.MaxVarintLen64)...) // room for the length
	body := len(dst)
	dst = binary.AppendVarint(dst, int64(p.Shard))
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(p.Paths)))
	for _, w := range p.Paths {
		edge := uint64(0)
		if w.EdgeEnd {
			edge = 1
		}
		dst = appendInts(binary.AppendUvarint(dst, uint64(len(w.Types))), w.Types)
		dst = appendInts(binary.AppendUvarint(dst, uint64(len(w.Attrs))), w.Attrs)
		dst = binary.AppendUvarint(dst, edge)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Patterns)))
	for _, wp := range p.Patterns {
		dst = appendInts(binary.AppendUvarint(dst, uint64(len(wp.Paths))), wp.Paths)
		dst = binary.AppendUvarint(dst, uint64(len(wp.RootAggs)))
		prev := int64(0)
		for _, ra := range wp.RootAggs {
			dst = binary.AppendVarint(dst, int64(ra.Root)-prev)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ra.Agg.Sum))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ra.Agg.Max))
			dst, prev = binary.AppendUvarint(dst, uint64(ra.Agg.Count)), int64(ra.Root)
		}
	}
	st := &p.PlanStats
	for _, v := range [...]int64{int64(p.CandidateRoots), int64(p.SampledRoots), p.TreesFound, p.EmptyChecked, p.BoundPruned,
		p.PrepareNS, int64(st.CandidateRoots), int64(st.RootTypes), st.PatternSpace, st.Frontier} {
		dst = binary.AppendVarint(dst, v)
	}
	n := len(dst) - body
	k := binary.PutUvarint(dst[at:], uint64(n))
	dst = dst[:at+k+copy(dst[at+k:], dst[body:])]
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at+k:], wire.CRC))
}

func appendInts[T ~int32](dst []byte, vs []T) []byte {
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// DecodePartial decodes one scatter frame into the producing node's seq
// and its partial. It refuses another magic, a wrong length or checksum,
// and a truncated, malformed or overlong payload; every count is bounded
// by the bytes left before it sizes an allocation. Whether the gather may
// merge the partial is fromWire's judgement.
func DecodePartial(frame []byte) (uint64, *WirePartial, error) {
	if !bytes.HasPrefix(frame, []byte(partialMagic)) {
		return 0, nil, fmt.Errorf("shard: not a scatter partial frame (expected magic %q)", partialMagic)
	}
	rest := frame[len(partialMagic):]
	n, k := binary.Uvarint(rest)
	if k <= 0 || len(rest)-k < 4 || n != uint64(len(rest)-k-4) {
		return 0, nil, fmt.Errorf("shard: scatter frame of %d bytes does not hold its declared payload", len(frame))
	}
	payload := rest[k : len(rest)-4]
	if crc32.Checksum(payload, wire.CRC) != binary.LittleEndian.Uint32(rest[len(rest)-4:]) {
		return 0, nil, fmt.Errorf("shard: scatter frame checksum mismatch")
	}
	r := &wire.Reader{B: payload} // each count is bounded by the bytes its items need
	p := &WirePartial{Shard: int(r.Varint())}
	seq := r.Uvarint()
	if n := r.Count(r.Left()/3, "path"); n > 0 {
		p.Paths = make([]WirePath, n)
		for i := range p.Paths {
			p.Paths[i].Types = readInts[kg.TypeID](r, r.Count(r.Left(), "type"))
			p.Paths[i].Attrs = readInts[kg.AttrID](r, r.Count(r.Left(), "attr"))
			p.Paths[i].EdgeEnd = r.Uvarint() != 0
		}
	}
	if n := r.Count(r.Left()/2, "pattern"); n > 0 {
		p.Patterns = make([]WirePattern, n)
		for i := range p.Patterns {
			wp := &p.Patterns[i]
			wp.Paths = readInts[int32](r, r.Count(r.Left(), "path index"))
			if m := r.Count(r.Left()/18, "root partial"); m > 0 { // a delta, two float64s, a count
				wp.RootAggs = make([]WireRootAgg, m)
				for x, root := 0, int64(0); x < m; x++ {
					root += r.Varint()
					sum, mx := r.Float(), r.Float()
					wp.RootAggs[x] = WireRootAgg{Root: kg.NodeID(root), Agg: core.PatternScore{Sum: sum, Max: mx, Count: int(r.Uvarint())}}
				}
			}
		}
	}
	st := &p.PlanStats
	p.CandidateRoots, p.SampledRoots = int(r.Varint()), int(r.Varint())
	p.TreesFound, p.EmptyChecked, p.BoundPruned, p.PrepareNS = r.Varint(), r.Varint(), r.Varint(), r.Varint()
	st.CandidateRoots, st.RootTypes, st.PatternSpace, st.Frontier = int(r.Varint()), int(r.Varint()), r.Varint(), r.Varint()
	if err := r.Done("shard: scatter payload"); err != nil {
		return 0, nil, err
	}
	return seq, p, nil
}

// readInts reads n values coded as the uvarints of their uint32 bits (nil
// for none); fromWire judges the values.
func readInts[T ~int32](r *wire.Reader, n int) []T {
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(uint32(r.Uvarint()))
	}
	return out
}
