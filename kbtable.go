// Package kbtable composes table answers to keyword queries over a
// knowledge base, implementing Yang, Ding, Chaudhuri and Chakrabarti,
// "Finding Patterns in a Knowledge Base using Keywords to Compose Table
// Answers" (PVLDB 7(14), 2014).
//
// A knowledge base is modeled as a typed directed graph. For a keyword
// query like "database software company revenue", the engine finds the
// top-k d-height *tree patterns* — aggregations of subtrees that contain
// every keyword with identical structure, node/edge types, and keyword
// positions — and renders each pattern as a table whose rows are the
// matching entity joins:
//
//	b := kbtable.NewBuilder()
//	sql := b.Entity("Software", "SQL Server")
//	ms := b.Entity("Company", "Microsoft")
//	b.Attr(sql, "Developer", ms)
//	b.TextAttr(ms, "Revenue", "US$ 77 billion")
//	g, _ := b.Build()
//	eng, _ := kbtable.NewEngine(g, kbtable.EngineOptions{D: 3})
//	answers, _ := eng.Search("software company revenue", 10)
//	fmt.Print(answers[0].Render(5))
//
// Three query algorithms are available: PatternEnum (the paper's
// PATTERNENUM, default, fastest in practice), LinearEnum (LINEARENUM-TOPK,
// linear in index + answer size, with optional root sampling), and
// Baseline (the enumeration–aggregation adaption of prior subtree search,
// an oracle the library alone runs, for comparison).
package kbtable

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
	"kbtable/internal/shard"
	"kbtable/internal/text"
)

// EntityID identifies an entity added through a Builder.
type EntityID = kg.NodeID

// Builder assembles a knowledge base: entities with types and text, and
// attributes connecting them (or holding plain text values).
type Builder struct {
	b *kg.Builder
}

// NewBuilder returns an empty knowledge-base builder.
func NewBuilder() *Builder { return &Builder{b: kg.NewBuilder()} }

// Entity adds an entity with a type name and text description.
func (b *Builder) Entity(typeName, text string) EntityID { return b.b.Entity(typeName, text) }

// Attr sets src.attr = dst, adding a typed directed edge. Call repeatedly
// with the same attr for multi-valued attributes.
func (b *Builder) Attr(src EntityID, attr string, dst EntityID) { b.b.Attr(src, attr, dst) }

// TextAttr sets src.attr to a plain-text value, creating a dummy literal
// entity that holds the text, and returns the literal's ID.
func (b *Builder) TextAttr(src EntityID, attr, value string) EntityID {
	return b.b.TextAttr(src, attr, value)
}

// Build freezes the knowledge base into an immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	g, err := b.b.Freeze()
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Graph is an immutable knowledge graph.
type Graph struct {
	g *kg.Graph
}

// NumEntities returns the number of entities (including text literals).
func (g *Graph) NumEntities() int { return g.g.NumNodes() }

// NumAttributes returns the number of attribute edges.
func (g *Graph) NumAttributes() int { return g.g.NumEdges() }

// NumTypes returns the number of entity types.
func (g *Graph) NumTypes() int { return g.g.NumTypes() }

// Save writes the graph to a file.
func (g *Graph) Save(path string) error { return g.g.SaveFile(path) }

// LoadGraph reads a graph written by Save.
func LoadGraph(path string) (*Graph, error) {
	g, err := kg.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Algorithm selects the query-processing strategy. It is the staged
// executor's own enum, so the facade hands it through unchanged; its
// String is "PETopK", "LETopK", "Baseline", "Auto" or "unknown".
type Algorithm = search.Algo

// Available algorithms.
const (
	// PatternEnum is PATTERNENUM (Section 4.1): usually fastest,
	// exponential worst case on empty pattern combinations.
	PatternEnum = search.AlgoPE
	// LinearEnum is LINEARENUM-TOPK (Section 4.2): linear in index and
	// answer size; supports sampling via SearchOptions.Lambda/Rho.
	LinearEnum = search.AlgoLE
	// Baseline is the enumeration-aggregation adaption of prior subtree
	// search (Section 2.3): one whole-graph index per engine snapshot,
	// whatever the shard count, built lazily on first use; /v1 refuses it.
	Baseline = search.AlgoBaseline
	// Auto defers the PatternEnum/LinearEnum choice to the cost-based
	// planner: the prepare stage's statistics (pattern-combination space,
	// candidate-root frontier, valid-subtree count) pick the cheaper
	// algorithm per query, and the answers are bit-identical to running
	// that algorithm explicitly. The returned PlanInfo (SearchPlan, Plan)
	// names the choice and why.
	Auto = search.AlgoAuto
)

// checkAlgorithm refuses a value outside the four algorithms.
func checkAlgorithm(a Algorithm) error {
	if a < PatternEnum || a > Auto {
		return fmt.Errorf("kbtable: unknown algorithm %d", a)
	}
	return nil
}

// EngineOptions configure index construction.
type EngineOptions struct {
	// D is the height threshold for tree patterns (max nodes on any
	// root-to-keyword path). Default 3, the paper's recommended setting.
	D int
	// UniformPageRank disables PageRank and scores every node equally.
	UniformPageRank bool
	// Synonyms maps alias words to canonical words sharing postings.
	Synonyms map[string]string
	// Workers sizes the worker pools for index construction and query
	// execution: each query's candidate-root frontier is sharded across
	// this many goroutines with per-worker top-k heaps merged into the
	// global queue. Parallel queries return exactly the serial results.
	// 0 (or negative) means GOMAXPROCS; 1 forces serial execution.
	Workers int
	// Shards is the number of index shards the knowledge base's candidate
	// roots are partitioned across (type-aware root hash, fixed at entity
	// creation); 0 means 1. One shard is one index over every root, and
	// queries run on it directly. With more, queries scatter to every
	// shard and gather exactly — answers (scores, pattern signatures,
	// table rows) are identical at every shard count — and updates route
	// only to the shards owning affected roots, each with its own epoch.
	// Shards build in parallel. Engines with more than one shard cannot
	// currently Save/load prebuilt index files, and LinearEnum's Λ/ρ
	// sampling is shard-local there (still unbiased, not bit-identical
	// to one-shard sampling); exact queries are unaffected.
	Shards int
	// OwnedShards restricts the engine to building only the listed
	// shards' indexes — a cluster owner node's view. The ownership hash,
	// PageRank and root filters still span the full graph, so each
	// resident shard is content-identical to the same shard of a full
	// engine. Partial engines only serve per-shard cluster legs
	// (ScatterShard / ProbeShard) and updates; every whole-query call
	// (Search*, Plan*, Prepare, SearchTrees, Explain) returns
	// ErrPartialEngine. Empty means all shards.
	OwnedShards []int
}

// shardCount is the one place an EngineOptions.Shards (or a snapshot
// manifest's) value becomes a shard count: anything below 1 means 1.
func shardCount(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// indexOptions lowers the build-time engine options onto the index's.
func (o EngineOptions) indexOptions() index.Options {
	return index.Options{
		D:         o.D,
		UniformPR: o.UniformPageRank,
		Synonyms:  o.Synonyms,
		Workers:   o.Workers,
	}
}

// SearchOptions configure one query beyond the basic top-k.
type SearchOptions struct {
	// K is the number of patterns to return (default 100).
	K int
	// Algorithm defaults to PatternEnum; Auto lets the planner pick.
	Algorithm Algorithm
	// Lambda and Rho enable LinearEnum's root sampling: when a root type
	// has at least Lambda valid subtrees, only a Rho fraction of its roots
	// are expanded and scores are estimated (then re-scored exactly for
	// the estimated top-k). Lambda <= 0 disables sampling. Under Auto,
	// sampling applies only when the planner resolves to LinearEnum.
	Lambda int64
	Rho    float64
	// Seed fixes the sampling randomness (default 1).
	Seed int64
	// MaxRowsPerTable caps materialized rows per answer (0 = all).
	MaxRowsPerTable int
}

// PlanInfo reports how a query executed (or, from Plan, would execute):
// the resolved algorithm, the planner's statistics and rationale, and the
// staged pipeline's per-stage wall-clock times (zero when no execution
// happened).
type PlanInfo struct {
	// Algorithm is the resolved strategy — never Auto.
	Algorithm Algorithm
	// Auto reports that the planner (not the caller) chose Algorithm.
	Auto bool
	// Reason is the planner's one-line cost rationale (empty for explicit
	// algorithm requests).
	Reason string
	// CandidateRoots is |∩ Roots(wi)| (-1 when the plan did not need it:
	// explicit PatternEnum skips the intersection).
	CandidateRoots int
	// RootTypes counts distinct root types common to every keyword.
	RootTypes int
	// PatternSpace is the pattern-combination count PatternEnum would
	// enumerate; Frontier is the total valid-subtree count LinearEnum
	// would expand. Both saturate at MaxInt64.
	PatternSpace int64
	Frontier     int64
	// Prepare/Enumerate/Aggregate/Rank are the staged executor's stage
	// wall-clock times for the run that produced the answers.
	Prepare   time.Duration
	Enumerate time.Duration
	Aggregate time.Duration
	Rank      time.Duration
	// BoundPruned counts enumeration units the streaming executor's top-k
	// bound pushdown cut before any path was fetched (0 when the run had
	// no execution, pruning was disabled, or the bound never fired).
	BoundPruned int64
}

// planInfo converts an executor plan + the run's query statistics to the
// facade view (pass a zero QueryStats when nothing executed).
func planInfo(p search.Plan, qs search.QueryStats) PlanInfo {
	return PlanInfo{
		Algorithm:      p.Algo,
		Auto:           p.Auto,
		Reason:         p.Reason,
		CandidateRoots: p.Stats.CandidateRoots,
		RootTypes:      p.Stats.RootTypes,
		PatternSpace:   p.Stats.PatternSpace,
		Frontier:       p.Stats.Frontier,
		Prepare:        qs.Stages.Prepare,
		Enumerate:      qs.Stages.Enumerate,
		Aggregate:      qs.Stages.Aggregate,
		Rank:           qs.Stages.Rank,
		BoundPruned:    qs.BoundPruned,
	}
}

// Engine answers keyword queries over one graph using prebuilt path
// indexes: EngineOptions.Shards >= 1 of them, partitioned by candidate
// root. How a query runs over one shard or several is the shard layer's
// business; the engine is the same type with the same surface either way.
type Engine struct {
	g  *Graph
	sh *shard.Engine
	// o holds the options as the caller gave them (Shards possibly 0);
	// the shard count in effect is sh.NumShards().
	o EngineOptions

	// seq is the last write-ahead-log sequence number reflected in this
	// snapshot (0 when the engine is not attached to a Store, or holds
	// only the initial state). See ApplyLogged / Checkpoint in durable.go.
	seq uint64

	// bl is the Baseline's index, built by searchBaseline on first use.
	blOnce sync.Once
	bl     *search.BaselineIndex
	blErr  error
}

// NewEngine builds the path-pattern indexes (Section 3) for g. Building
// cost grows steeply with D (Figure 6: internal/bench's RunFig6, run by
// `kbbench -only fig6`; see README "Development"); D=3 is a good default
// balance of answer quality and cost.
func NewEngine(g *Graph, opts EngineOptions) (*Engine, error) {
	if g == nil {
		return nil, errors.New("kbtable: nil graph")
	}
	if opts.D == 0 {
		opts.D = 3
	}
	var sh *shard.Engine
	var err error
	if len(opts.OwnedShards) > 0 {
		sh, err = shard.NewPartialEngine(g.g, shardCount(opts.Shards), opts.OwnedShards, opts.indexOptions())
	} else {
		sh, err = shard.NewEngine(g.g, shardCount(opts.Shards), opts.indexOptions())
	}
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	return &Engine{g: g, sh: sh, o: opts}, nil
}

// IndexStats describe the built index (the quantities of Figure 6).
type IndexStats struct {
	BuildSeconds float64
	// Bytes is the exact resident size of the columnar posting arenas
	// (summed across shards); SizeMB is the same quantity in MB.
	Bytes  int64
	SizeMB float64
	// BytesPerEntry is Bytes / Entries, the headline footprint figure.
	BytesPerEntry float64
	Entries       int64
	Patterns      int
	D             int
}

// IndexStats returns construction statistics: sizes sum across shards
// and BuildSeconds is the slowest shard (the builds run in parallel).
func (e *Engine) IndexStats() IndexStats {
	out := IndexStats{D: e.sh.D()}
	for i := 0; i < e.sh.NumShards(); i++ {
		ix := e.sh.Index(i)
		if ix == nil { // unowned shard of a partial engine
			continue
		}
		s := ix.Stats()
		if bs := s.BuildTime.Seconds(); bs > out.BuildSeconds {
			out.BuildSeconds = bs
		}
		out.Bytes += s.Bytes
		out.Entries += s.NumEntries
		out.Patterns += s.NumPatterns
	}
	out.SizeMB = float64(out.Bytes) / (1 << 20)
	if out.Entries > 0 {
		out.BytesPerEntry = float64(out.Bytes) / float64(out.Entries)
	}
	return out
}

// Answer is one ranked tree pattern rendered as a table.
type Answer struct {
	// Rank starts at 1.
	Rank int
	// Score is the pattern's aggregate relevance.
	Score float64
	// NumRows is the total number of valid subtrees of the pattern (the
	// table may be truncated to MaxRowsPerTable).
	NumRows int
	// Pattern describes the interpretation, one line per keyword.
	Pattern string
	// Columns and Rows are the composed table (Figure 3).
	Columns []string
	// FullColumns are the paper's formal column names τ(v)α(e)τ(u).
	FullColumns []string
	Rows        [][]string
}

// Render formats the answer as an ASCII table with at most maxRows rows
// (negative = all).
func (a Answer) Render(maxRows int) string {
	return fmt.Sprintf("#%d score=%.4f rows=%d\n%s\n%s", a.Rank, a.Score, a.NumRows, a.Pattern, a.table().Render(maxRows))
}

// Search returns the top-k table answers for a keyword query using the
// default algorithm (PatternEnum).
func (e *Engine) Search(query string, k int) ([]Answer, error) {
	return e.SearchOpts(query, SearchOptions{K: k})
}

// SearchOpts runs a query with full control over algorithm and sampling.
// An unknown keyword simply yields no answers (never an error): every
// answer must contain every keyword.
func (e *Engine) SearchOpts(query string, opts SearchOptions) ([]Answer, error) {
	return e.SearchContext(context.Background(), query, opts)
}

// SearchContext is SearchOpts with cancellation: a canceled or expired
// context stops the query between frontier shards and returns the
// context's error. Engines are safe for concurrent SearchContext calls —
// queries only read the index — and each query additionally fans out
// across EngineOptions.Workers goroutines internally.
func (e *Engine) SearchContext(ctx context.Context, query string, opts SearchOptions) ([]Answer, error) {
	answers, _, err := e.SearchPlan(ctx, query, opts)
	return answers, err
}

// searchOptions lowers facade options onto the executor's.
func (e *Engine) searchOptions(opts SearchOptions) search.Options {
	if opts.K <= 0 {
		opts.K = 100
	}
	return search.Options{
		K:                  opts.K,
		Lambda:             opts.Lambda,
		Rho:                opts.Rho,
		Seed:               opts.Seed,
		MaxTreesPerPattern: opts.MaxRowsPerTable,
		Workers:            e.o.Workers,
	}
}

// SearchPlan is SearchContext plus plan observability: it additionally
// returns how the query executed — the resolved algorithm (for
// Algorithm: Auto, the planner's per-query choice, whose answers are
// bit-identical to requesting that algorithm explicitly), the statistics
// the decision was based on, and per-stage timings.
func (e *Engine) SearchPlan(ctx context.Context, query string, opts SearchOptions) ([]Answer, PlanInfo, error) {
	return e.search(ctx, nil, query, opts)
}

// search is the one body under SearchPlan and SearchDistributed: exec,
// when non-nil, runs the shard legs (see ShardExecutor).
func (e *Engine) search(ctx context.Context, exec ShardExecutor, query string, opts SearchOptions) ([]Answer, PlanInfo, error) {
	if !e.sh.Complete() {
		return nil, PlanInfo{}, ErrPartialEngine
	}
	algo := opts.Algorithm
	if err := checkAlgorithm(algo); err != nil {
		return nil, PlanInfo{}, err
	}
	so := e.searchOptions(opts)
	if algo == Baseline {
		res, err := e.searchBaseline(ctx, query, so)
		if err != nil {
			return nil, PlanInfo{}, fmt.Errorf("kbtable: %w", err)
		}
		return e.answers(res), planInfo(res.Plan, res.Stats), nil
	}
	res, err := e.sh.Search(ctx, algo, query, so, e.legs(exec, query, opts))
	if err != nil {
		return nil, PlanInfo{}, fmt.Errorf("kbtable: %w", err)
	}
	return e.answers(res), planInfo(res.Plan, res.Stats), nil
}

// Plan resolves a query's execution plan without running it: the prepare
// stage's statistics plus, for Algorithm: Auto, the planner's choice. A
// subsequent search with the returned PlanInfo.Algorithm produces exactly
// the answers Auto would. Stage timings are zero (nothing executed).
func (e *Engine) Plan(ctx context.Context, query string, opts SearchOptions) (PlanInfo, error) {
	return e.plan(ctx, nil, query, opts)
}

// plan is the one body under Plan and PlanDistributed: exec, when
// non-nil, runs the probe legs. Every call probes; nothing is cached.
func (e *Engine) plan(ctx context.Context, exec ShardExecutor, query string, opts SearchOptions) (PlanInfo, error) {
	if !e.sh.Complete() {
		return PlanInfo{}, ErrPartialEngine
	}
	so := e.searchOptions(opts)
	if err := checkAlgorithm(opts.Algorithm); err != nil {
		return PlanInfo{}, err
	}
	words, _ := search.ResolveQuery(e.sh.Dict(), query)
	st, err := e.sh.PlanStats(ctx, words, so, e.legs(exec, query, opts))
	if err != nil {
		return PlanInfo{}, fmt.Errorf("kbtable: %w", err)
	}
	return planInfo(search.ChoosePlan(opts.Algorithm, st), search.QueryStats{}), nil
}

// searchBaseline runs a Baseline query on the snapshot's whole-graph
// BaselineIndex, building it on first use. The index scores with the
// shard engine's PageRank vector, so no second PageRank runs and scores
// keep the bits PE and LE produce, at every shard count.
func (e *Engine) searchBaseline(ctx context.Context, query string, so search.Options) (*shard.Result, error) {
	e.blOnce.Do(func() {
		e.bl, e.blErr = search.NewBaseline(e.g.g, search.BaselineOptions{D: e.sh.D(), PageRank: e.sh.PageRank(), UniformPR: e.o.UniformPageRank, Synonyms: e.o.Synonyms})
	})
	if e.blErr != nil {
		return nil, e.blErr
	}
	res, err := e.bl.SearchCtx(ctx, query, so)
	if err != nil {
		return nil, err
	}
	out := &shard.Result{Patterns: make([]shard.RankedPattern, len(res.Patterns)), Stats: res.Stats, Plan: res.Plan}
	for i, rp := range res.Patterns {
		out.Patterns[i] = shard.RankedPattern{Pattern: rp.Pattern, Table: res.Table, Agg: rp.Agg, Score: rp.Score, Trees: rp.Trees}
	}
	return out, nil
}

func (e *Engine) answers(res *shard.Result) []Answer {
	out := make([]Answer, 0, len(res.Patterns))
	for i, rp := range res.Patterns {
		tab := core.ComposeTable(e.g.g, rp.Table, rp.Pattern, rp.Trees)
		a := Answer{
			Rank:    i + 1,
			Score:   rp.Score,
			NumRows: rp.Agg.Count,
			Pattern: rp.Pattern.Render(e.g.g, rp.Table, res.Stats.Surfaces),
			Rows:    tab.Rows,
		}
		for _, c := range tab.Columns {
			a.Columns = append(a.Columns, c.Name)
			a.FullColumns = append(a.FullColumns, c.Full)
		}
		out = append(out, a)
	}
	return out
}

// SaveIndex persists a one-shard engine's path index so future engines
// over the same graph can skip Algorithm 1 (NewEngineFromIndex). The graph
// is not included; pair the file with Graph.Save's output. Engines with
// more shards do not support index files yet (each shard is a separate
// index); Checkpoint persists those.
func (e *Engine) SaveIndex(path string) error {
	if e.sh.NumShards() > 1 {
		return errors.New("kbtable: sharded engines cannot save indexes yet")
	}
	return e.sh.Index(0).SaveFile(path)
}

// NewEngineFromIndex loads a previously saved index for g instead of
// rebuilding it, as a one-shard engine. Loading verifies the index matches
// the graph. opts.UniformPageRank must be the saving engine's: the index
// reads PR from g's vector.
func NewEngineFromIndex(g *Graph, path string, opts EngineOptions) (*Engine, error) {
	if g == nil {
		return nil, errors.New("kbtable: nil graph")
	}
	if shardCount(opts.Shards) > 1 {
		return nil, errors.New("kbtable: prebuilt index files are incompatible with sharding; build with NewEngine")
	}
	lo := opts.indexOptions()
	lo.PageRank = shard.PageRankOf(g.g, lo)
	ix, err := index.LoadFile(path, g.g, lo.PageRank)
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	if opts.D == 0 {
		opts.D = ix.D()
		lo.D = ix.D()
	}
	sh, err := shard.FromParts(g.g, nil, []*index.Index{ix}, nil, lo)
	if err != nil {
		return nil, fmt.Errorf("kbtable: %w", err)
	}
	return &Engine{g: g, sh: sh, o: opts}, nil
}

// Graph returns the engine's knowledge-graph snapshot.
func (e *Engine) Graph() *Graph { return e.g }

// ShardInfo describes the engine's shard layout for monitoring surfaces
// like kbserve's /healthz.
type ShardInfo struct {
	// Count is the number of shards, at least 1.
	Count int
	// Epochs, Roots and Entries are per-shard, Count long: the shard's
	// update epoch (how many updates spliced its postings), its live
	// owned roots, and its index posting count.
	Epochs  []uint64
	Roots   []int
	Entries []int64
}

// ShardInfo reports the current shard layout.
func (e *Engine) ShardInfo() ShardInfo {
	sts := e.sh.Stats()
	info := ShardInfo{
		Count:   e.sh.NumShards(),
		Epochs:  make([]uint64, len(sts)),
		Roots:   make([]int, len(sts)),
		Entries: make([]int64, len(sts)),
	}
	for i, st := range sts {
		info.Epochs[i] = st.Epoch
		info.Roots[i] = st.Roots
		info.Entries[i] = st.Entries
	}
	return info
}

// NumRemoved returns the number of tombstoned (removed) entities; their
// IDs stay reserved so surviving entity IDs never shift.
func (g *Graph) NumRemoved() int { return g.g.NumRemoved() }

// --- Live updates -----------------------------------------------------

// UpdateOp is one declarative knowledge-base mutation. Op selects the
// operation; the other fields are interpreted per op:
//
//	add_entity     Type, Text            — append an entity
//	add_attr       Src, Attr, Dst        — add the edge Src.Attr = Dst
//	add_text_attr  Src, Attr, Text       — add Src.Attr = "Text" (literal)
//	remove_edge    Src, Attr, Dst        — cut every matching edge
//	remove_entity  Node                  — tombstone Node and its edges
//	set_text       Node, Text            — replace Node's text description
//
// Entity references (Src, Dst, Node) are either non-negative EntityIDs of
// existing entities, or negative back-references into the same update:
// -(i+1) denotes the entity created by the i-th add_entity op of this
// batch (add_text_attr literals cannot be referenced). They are pointers
// so that an absent (or misspelled) JSON field fails validation instead of
// silently resolving to entity 0 — remove_entity on the wrong entity is
// not a mistake to paper over.
type UpdateOp struct {
	Op   string `json:"op"`
	Type string `json:"type,omitempty"`
	Text string `json:"text,omitempty"`
	Attr string `json:"attr,omitempty"`
	Src  *int64 `json:"src,omitempty"`
	Dst  *int64 `json:"dst,omitempty"`
	Node *int64 `json:"node,omitempty"`
}

// Update is an atomic batch of mutations: it either applies completely,
// yielding one new engine snapshot, or fails without side effects.
type Update struct {
	Ops []UpdateOp `json:"ops"`

	// adds counts the add_entity ops among Ops[:counted], maintained
	// incrementally so AddEntity back-references cost O(1) amortized.
	// Appending to Ops by hand between helper calls is picked up by the
	// catch-up scan; truncation triggers a full rescan. (Reordering Ops
	// invalidates already-returned back-references regardless — they are
	// positional — so no bookkeeping can support it.)
	adds    int64
	counted int
}

// Ref wraps an entity reference for an UpdateOp literal: an EntityID, or a
// negative back-reference as returned by AddEntity.
func Ref(v int64) *int64 { return &v }

// AddEntity stages an entity and returns a negative back-reference usable
// as Src/Dst/Node in later ops of the same update.
func (u *Update) AddEntity(typeName, text string) int64 {
	if u.counted > len(u.Ops) {
		u.adds, u.counted = 0, 0
	}
	for ; u.counted < len(u.Ops); u.counted++ {
		if u.Ops[u.counted].Op == "add_entity" {
			u.adds++
		}
	}
	u.Ops = append(u.Ops, UpdateOp{Op: "add_entity", Type: typeName, Text: text})
	u.counted++
	u.adds++
	return -u.adds
}

// AddAttr stages the attribute edge src.attr = dst.
func (u *Update) AddAttr(src int64, attr string, dst int64) {
	u.Ops = append(u.Ops, UpdateOp{Op: "add_attr", Src: Ref(src), Attr: attr, Dst: Ref(dst)})
}

// AddTextAttr stages src.attr = value for a plain-text value.
func (u *Update) AddTextAttr(src int64, attr, value string) {
	u.Ops = append(u.Ops, UpdateOp{Op: "add_text_attr", Src: Ref(src), Attr: attr, Text: value})
}

// RemoveEdge stages the removal of every edge src.attr = dst.
func (u *Update) RemoveEdge(src int64, attr string, dst int64) {
	u.Ops = append(u.Ops, UpdateOp{Op: "remove_edge", Src: Ref(src), Attr: attr, Dst: Ref(dst)})
}

// RemoveEntity stages the removal of an entity and all its edges.
func (u *Update) RemoveEntity(node int64) {
	u.Ops = append(u.Ops, UpdateOp{Op: "remove_entity", Node: Ref(node)})
}

// SetText stages a replacement text description for an entity.
func (u *Update) SetText(node int64, text string) {
	u.Ops = append(u.Ops, UpdateOp{Op: "set_text", Node: Ref(node), Text: text})
}

// UpdateResult reports what one applied update did.
type UpdateResult struct {
	// NewEntities are the resolved IDs of this update's add_entity ops, in
	// op order (what the negative back-references resolved to).
	NewEntities []EntityID
	// Entities / Attributes are the new snapshot's totals (tombstones
	// included in Entities).
	Entities   int
	Attributes int
	// DirtyRoots is how many roots were re-enumerated; a full index
	// rebuild would have enumerated every entity.
	DirtyRoots int
	// EntriesRemoved / EntriesAdded count spliced index postings.
	EntriesRemoved int64
	EntriesAdded   int64
	// TouchedWords are the canonical words whose posting lists changed —
	// exactly the queries whose cached answers may now be stale, unless
	// ScoresRefreshed is set.
	TouchedWords []string
	// ScoresRefreshed reports that scoring moved to a new PageRank vector
	// (any structural change under non-uniform PageRank; no posting is
	// rewritten for it): cached answers for ALL queries may be stale, not
	// just TouchedWords'.
	ScoresRefreshed bool
	// AffectedShards counts the shards whose postings this update
	// actually touched (untouched shards rebind to the new snapshot
	// without re-enumerating anything).
	AffectedShards int
	// Elapsed is the wall-clock time of graph apply + index maintenance.
	Elapsed time.Duration
}

// ApplyUpdate applies a batch of mutations and returns a NEW engine over
// the updated knowledge base. The receiver is not modified and remains
// fully usable, so in-flight searches (and callers holding the old engine)
// keep a consistent snapshot; the path-pattern index is maintained
// incrementally by re-enumerating only roots whose d-neighborhood the
// update touched. The update is validated eagerly (dangling references,
// edges out of literals, double removals, …) and applies atomically or
// not at all.
func (e *Engine) ApplyUpdate(u Update) (*Engine, UpdateResult, error) {
	start := time.Now()
	var res UpdateResult
	if len(u.Ops) == 0 {
		return nil, res, errors.New("kbtable: update has no ops")
	}
	d := kg.NewDelta(e.g.g)
	var created []kg.NodeID
	resolve := func(r *int64, what string) (kg.NodeID, error) {
		if r == nil {
			return -1, fmt.Errorf("kbtable: missing %s", what)
		}
		ref := *r
		if ref >= 0 {
			if ref > int64(e.g.g.NumNodes())+int64(len(u.Ops)) {
				return -1, fmt.Errorf("kbtable: %s %d out of range", what, ref)
			}
			return kg.NodeID(ref), nil
		}
		i := -ref - 1
		if int(i) >= len(created) {
			return -1, fmt.Errorf("kbtable: %s %d references add_entity #%d, but only %d precede it", what, ref, i, len(created))
		}
		return created[i], nil
	}
	for i, op := range u.Ops {
		var err error
		switch op.Op {
		case "add_entity":
			var id kg.NodeID
			if id, err = d.AddEntity(op.Type, op.Text); err == nil {
				created = append(created, id)
			}
		case "add_attr":
			var src, dst kg.NodeID
			if src, err = resolve(op.Src, "src"); err == nil {
				if dst, err = resolve(op.Dst, "dst"); err == nil {
					err = d.AddAttr(src, op.Attr, dst)
				}
			}
		case "add_text_attr":
			var src kg.NodeID
			if src, err = resolve(op.Src, "src"); err == nil {
				_, err = d.AddTextAttr(src, op.Attr, op.Text)
			}
		case "remove_edge":
			var src, dst kg.NodeID
			if src, err = resolve(op.Src, "src"); err == nil {
				if dst, err = resolve(op.Dst, "dst"); err == nil {
					_, err = d.RemoveEdge(src, op.Attr, dst)
				}
			}
		case "remove_entity":
			var v kg.NodeID
			if v, err = resolve(op.Node, "node"); err == nil {
				err = d.RemoveEntity(v)
			}
		case "set_text":
			var v kg.NodeID
			if v, err = resolve(op.Node, "node"); err == nil {
				err = d.SetText(v, op.Text)
			}
		default:
			err = fmt.Errorf("kbtable: unknown op %q", op.Op)
		}
		if err != nil {
			return nil, res, fmt.Errorf("kbtable: op %d (%s): %w", i, op.Op, err)
		}
	}
	ch, err := d.Apply()
	if err != nil {
		return nil, res, fmt.Errorf("kbtable: %w", err)
	}
	res = UpdateResult{
		NewEntities: created,
		Entities:    ch.New.NumNodes(),
		Attributes:  ch.New.NumEdges(),
	}
	nsh, us, err := e.sh.ApplyDelta(ch)
	if err != nil {
		return nil, res, fmt.Errorf("kbtable: %w", err)
	}
	ne := &Engine{g: &Graph{g: ch.New}, sh: nsh, o: e.o, seq: e.seq}
	res.DirtyRoots = us.DirtyRoots
	res.EntriesRemoved = us.EntriesRemoved
	res.EntriesAdded = us.EntriesAdded
	res.TouchedWords = us.TouchedWords
	res.ScoresRefreshed = us.ScoresRefreshed
	res.AffectedShards = us.AffectedShards
	res.Elapsed = time.Since(start)
	return ne, res, nil
}

// QueryWords returns the sorted canonical words a query resolves to
// (known words through stemming and synonym aliasing, unknown words as
// their stem) in the engine's dictionary, the one every shard of this
// epoch shares, a partial engine's too. Matched against
// UpdateResult.TouchedWords, it tells a cache whether an update could have
// changed this query's answers.
func (e *Engine) QueryWords(query string) []string {
	d := e.sh.Dict()
	ids, surfaces := d.QueryTokens(query)
	out := make([]string, len(ids))
	for i, id := range ids {
		if id == text.NoWord {
			// Unknown today — but an update may introduce it, and its
			// postings would then live under the stem.
			out[i] = text.Stem(surfaces[i])
		} else {
			out[i] = d.Word(id)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// CSV renders the answer's table as CSV.
func (a Answer) CSV() string {
	var sb strings.Builder
	_ = a.table().WriteCSV(&sb)
	return sb.String()
}

// JSON renders the answer's table as a JSON object.
func (a Answer) JSON() string {
	var sb strings.Builder
	_ = a.table().WriteJSON(&sb)
	return sb.String()
}

// Markdown renders the answer's table as GitHub-flavored Markdown with at
// most maxRows rows (negative = all).
func (a Answer) Markdown(maxRows int) string {
	return a.table().Markdown(maxRows)
}

// table is the answer as the renderers' table. A column without a full
// name (FullColumns is optional on the wire) goes by its short name.
func (a Answer) table() core.Table {
	cols := make([]core.Column, len(a.Columns))
	for i, name := range a.Columns {
		cols[i] = core.Column{Name: name, Full: name}
		if i < len(a.FullColumns) {
			cols[i].Full = a.FullColumns[i]
		}
	}
	return core.Table{Columns: cols, Rows: a.Rows}
}

// Explanation describes what a query would cost and return, without
// ranking: how the keywords resolved, how many candidate roots, tree
// patterns and valid subtrees exist at the engine's height threshold.
// Useful for deciding between exact and sampled execution.
type Explanation struct {
	// Keywords as resolved against the corpus (stemmed, deduplicated).
	Keywords []string
	// Unknown lists query words with no postings; if non-empty the query
	// has no answers.
	Unknown []string
	// CandidateRoots is the number of nodes that reach every keyword.
	CandidateRoots int
	// Patterns and Subtrees are the total answer counts (before top-k).
	// When Subtrees exceeds ExplainBudget, Patterns is -1 and Capped is
	// true (counting patterns is #P-complete in general — Theorem 1 — and
	// costs up to one pass over all subtree combinations).
	Patterns int
	Subtrees int64
	Capped   bool
}

// ExplainBudget bounds the work Explain spends counting patterns.
const ExplainBudget = 5_000_000

// Explain analyzes a query without ranking answers. Candidate roots and
// subtrees are the planner probe's (they sum across the shards' disjoint
// root partitions) and patterns are unioned by content.
// A partial engine cannot count across the whole partition and returns
// ErrPartialEngine.
func (e *Engine) Explain(query string) (Explanation, error) {
	ex := Explanation{}
	if !e.sh.Complete() {
		return ex, ErrPartialEngine
	}
	words, surfaces := search.ResolveQuery(e.sh.Dict(), query)
	st, err := e.sh.PlanStats(context.Background(), words, search.Options{}, nil)
	if err != nil {
		return ex, fmt.Errorf("kbtable: %w", err)
	}
	for i, w := range words {
		if w < 0 {
			ex.Unknown = append(ex.Unknown, surfaces[i])
		} else {
			ex.Keywords = append(ex.Keywords, surfaces[i])
		}
	}
	ex.CandidateRoots, ex.Subtrees = st.CandidateRoots, st.Frontier
	if ex.Capped = ex.Subtrees > ExplainBudget; ex.Capped {
		ex.Patterns = -1
	} else {
		ex.Patterns = e.sh.CountAllContent(words)
	}
	return ex, nil
}

// TreeAnswer is one individually-ranked valid subtree, the alternative
// result granularity the paper compares against in Section 5.3 (a single
// row rather than a table).
type TreeAnswer struct {
	Rank    int
	Score   float64
	Pattern string
	Columns []string
	Row     []string
}

// SearchTrees ranks individual valid subtrees instead of tree patterns —
// useful when the query intent is a single best answer ("popular XBox
// game") rather than a list ("list of XBox games"). The Figures 14-15
// case study shows the contrast: internal/bench's RunCaseStudy, run by
// `kbbench -only case` (see README "Development").
func (e *Engine) SearchTrees(query string, k int) ([]TreeAnswer, error) {
	if !e.sh.Complete() {
		return nil, ErrPartialEngine
	}
	if k <= 0 {
		k = 10
	}
	trees, stats := e.sh.TopTrees(query, k, search.Options{})
	out := make([]TreeAnswer, 0, len(trees))
	for i, rt := range trees {
		tab := core.ComposeTable(e.g.g, rt.Table, rt.Pattern, []core.Subtree{rt.Tree})
		ta := TreeAnswer{
			Rank:    i + 1,
			Score:   rt.Score,
			Pattern: rt.Pattern.Render(e.g.g, rt.Table, stats.Surfaces),
		}
		for _, c := range tab.Columns {
			ta.Columns = append(ta.Columns, c.Name)
		}
		if len(tab.Rows) > 0 {
			ta.Row = tab.Rows[0]
		}
		out = append(out, ta)
	}
	return out, nil
}
