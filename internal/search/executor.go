package search

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// This file is the streaming query executor: every query — whichever
// algorithm answers it — runs the same four-stage pipeline
//
//	prepare    resolve keywords, fetch the per-keyword posting metadata
//	           (root lists, root-type lists) and, when a cost decision is
//	           needed, the per-type hit statistics the planner consumes.
//	           The only stage that differs per algorithm is how much of
//	           this metadata it needs; cancellation is honored between
//	           posting lookups.
//	enumerate  the algorithm's fused, lazy enumerate→aggregate walk:
//	           PATTERNENUM's combination tree with the running k-th-score
//	           bound pushed into it, LINEARENUM-TOPK's per-root expansion
//	           with the keyword predicate pushed below pattern expansion
//	           (both sharded across the worker pool; each enumeration unit
//	           is scored and offered into a per-worker heap the moment it
//	           is produced — see stream.go).
//	aggregate  fold the per-worker accumulators — local top-k heaps and
//	           stat counters — into the global queue (the cross-worker
//	           half of the canonical two-level root fold; the in-shard
//	           half runs inside enumerate, unchanged).
//	rank       extract the ranked patterns and materialize their subtrees.
//
// The planner (ChoosePlan) sits between prepare and enumerate: given the
// prepare-stage statistics it resolves AlgoAuto to PATTERNENUM or
// LINEARENUM-TOPK per query. Resolution is pure — a deterministic function
// of PlanStats alone — and execution after resolution is exactly the
// explicit algorithm's, so an Auto answer is bit-identical to the answer
// of the algorithm the plan names.

// Algo identifies an execution strategy for the staged executor.
type Algo int

// Execution strategies. The zero value is PATTERNENUM, matching the
// engine-level default.
const (
	// AlgoPE is PATTERNENUM (Section 4.1).
	AlgoPE Algo = iota
	// AlgoLE is LINEARENUM-TOPK (Section 4.2).
	AlgoLE
	// AlgoBaseline is the enumeration–aggregation baseline (Section 2.3);
	// it runs on a BaselineIndex, never through Execute.
	AlgoBaseline
	// AlgoAuto defers the PE/LE choice to the cost-based planner.
	AlgoAuto
)

func (a Algo) String() string {
	switch a {
	case AlgoPE:
		return "PETopK"
	case AlgoLE:
		return "LETopK"
	case AlgoBaseline:
		return "Baseline"
	case AlgoAuto:
		return "Auto"
	}
	return "unknown"
}

// PlanStats are the prepare-stage statistics the planner consumes. They
// are mergeable across disjoint root partitions (Merge), which is how the
// sharded engine decides once from per-shard probes.
type PlanStats struct {
	// CandidateRoots is |∩_i Roots(wi)|, or -1 when the stage did not
	// compute the intersection (explicit PATTERNENUM never needs it).
	CandidateRoots int
	// RootTypes is the number of distinct root types under which every
	// keyword has at least one path pattern.
	RootTypes int
	// PatternSpace is Σ_C Π_i |PatternsOfType(wi, C)| — the number of
	// pattern combinations PATTERNENUM enumerates (before pruning), its
	// cost driver. Saturates at MaxInt64.
	PatternSpace int64
	// Frontier is NR = Σ_r Π_i |Paths(wi, r)| — the total valid-subtree
	// count, LINEARENUM's cost driver. Saturates at MaxInt64.
	Frontier int64
	// PostingRoots is the per-keyword root-posting length |Roots(wi)|.
	PostingRoots []int
}

// Merge folds another partition's statistics in: counts add (root
// partitions are disjoint, so sums are exact for CandidateRoots, Frontier
// and PostingRoots), RootTypes takes the max (a type common to every
// keyword globally need not be common within one shard, so the max is a
// lower bound), and a -1 CandidateRoots poisons the sum.
func (s *PlanStats) Merge(o PlanStats) {
	if s.CandidateRoots < 0 || o.CandidateRoots < 0 {
		s.CandidateRoots = -1
	} else {
		s.CandidateRoots += o.CandidateRoots
	}
	if o.RootTypes > s.RootTypes {
		s.RootTypes = o.RootTypes
	}
	s.PatternSpace = satAdd(s.PatternSpace, o.PatternSpace)
	s.Frontier = satAdd(s.Frontier, o.Frontier)
	// Sum PostingRoots positionally over the longer of the two vectors: a
	// shard that resolved fewer keywords (or probed first) must not
	// silently truncate the other partition's posting counts. The sum is a
	// new slice: the receiver's may be shared with the shard plan it was
	// copied from, which a merge must not write through.
	sum := make([]int, max(len(s.PostingRoots), len(o.PostingRoots)))
	copy(sum, s.PostingRoots)
	for i, n := range o.PostingRoots {
		sum[i] += n
	}
	s.PostingRoots = sum
}

// satAdd adds non-negative int64s saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Plan records how a query executed (or would execute): the resolved
// algorithm, whether the planner chose it, why, and the statistics the
// decision was based on.
type Plan struct {
	// Algo is the resolved strategy — never AlgoAuto.
	Algo Algo
	// Auto reports that the planner (not the caller) picked Algo.
	Auto bool
	// Reason is the planner's one-line cost rationale (empty for explicit
	// algorithm requests).
	Reason string
	// Stats are the prepare-stage statistics the plan was based on.
	Stats PlanStats
}

// StageTimings instruments the pipeline, one wall-clock duration per
// stage. Enumerate covers the fused enumerate→aggregate walk (scoring and
// per-worker top-k maintenance happen inside it — there is no separate
// aggregation pass over materialized candidates); Aggregate covers only
// the final cross-worker fold. Rank includes subtree materialization (the
// paper's table composition) since it only runs for the ranked winners.
type StageTimings struct {
	Prepare   time.Duration
	Enumerate time.Duration
	Aggregate time.Duration
	Rank      time.Duration
}

// ChoosePlan resolves algo against prepare-stage statistics. Explicit
// algorithms pass through untouched; AlgoAuto is resolved by the cost
// model:
//
//	cost(PE) ≈ PatternSpace            — one root-list intersection per
//	                                     enumerated combination, empty or
//	                                     not (PE's worst case, Section 4.1)
//	         + Frontier/2              — PE's per-subtree surcharge
//	cost(LE) ≈ CandidateRoots + 1      — one expansion per candidate root
//
// Both algorithms score every valid subtree, so that shared cost cancels
// and only the per-subtree difference survives. It sits on PE's side: for
// every (combination, root) pair PE re-seeks each keyword's run and
// copies its score terms, where LE fetches a root's runs once (measured,
// PE's walk is the dearer per subtree). PE is chosen iff PatternSpace +
// Frontier/2 <= CandidateRoots + 1, the one rule with no parameters. The
// decision is a pure function of the PlanStats, so any engine holding the
// same merged statistics — in particular every shard of a scatter —
// resolves identically. internal/bench's "Auto regret" column measures how
// close the rule comes to the faster algorithm per query, and
// TestAutoRegretFixture holds it to recorded timings.
//
// The comparison is exact and saturation-safe: it is made in int64, where
// float64 would collapse distinct values near 2^63 onto one rounding
// bucket, and both costs saturate at MaxInt64 instead of wrapping
// negative (a wrapped PE cost would force PATTERNENUM on precisely the
// explosive frontiers it walks worst); two saturated costs tie, and a tie
// goes to PE.
func ChoosePlan(algo Algo, st PlanStats) Plan {
	if algo != AlgoAuto {
		return Plan{Algo: algo, Stats: st}
	}
	cand := int64(0)
	if st.CandidateRoots > 0 {
		cand = int64(st.CandidateRoots)
	}
	peCost := satAdd(st.PatternSpace, st.Frontier/2)
	leCost := satAdd(cand, 1)
	p := Plan{Auto: true, Stats: st, Algo: AlgoPE}
	op, name := "<=", "PATTERNENUM"
	if peCost > leCost {
		p.Algo, op, name = AlgoLE, ">", "LINEARENUM-TOPK"
	}
	p.Reason = fmt.Sprintf("PE cost %d (pattern space %d + frontier %d / 2) %s LE cost %d (roots %d + 1): %s",
		peCost, st.PatternSpace, st.Frontier, op, leCost, cand, name)
	return p
}

// prepNeed flags what the prepare stage must compute beyond keyword
// resolution and the per-keyword root postings.
type prepNeed int

const (
	// needTypes: the common-root-type intersection (PATTERNENUM line 2).
	needTypes prepNeed = 1 << iota
	// needRoots: the candidate-root intersection partitioned by type
	// (LINEARENUM lines 1-3).
	needRoots
	// needCost: the planner's pattern-space and frontier estimates
	// (implies needTypes and needRoots).
	needCost
)

// prepared is the prepare stage's output: everything the enumerate stage
// reads, plus the planner's statistics.
type prepared struct {
	words []text.WordID
	// ok reports the query is answerable: every keyword resolved and has
	// a nonempty root posting. When false nothing else is populated.
	ok bool

	rootLists  [][]kg.NodeID // per keyword, from the root-first index
	rootTypes  []kg.TypeID   // needTypes: common root types
	candidates []kg.NodeID   // needRoots: ∩ rootLists
	byType     map[kg.TypeID][]kg.NodeID
	types      []kg.TypeID // needRoots: sorted keys of byType

	stats PlanStats
}

// prepare runs the shared prepare stage: posting lookups and statistics,
// honoring ctx between lookups (a canceled request stops before any
// enumeration work starts).
func prepare(ctx context.Context, ix *index.Index, words []text.WordID, need prepNeed) (*prepared, error) {
	if need&needCost != 0 {
		need |= needTypes | needRoots
	}
	p := &prepared{words: words}
	// CandidateRoots semantics: 0 when the set is provably empty (an
	// unresolvable keyword), -1 when the plan did not need the
	// intersection (explicit PATTERNENUM on an answerable query).
	p.stats.CandidateRoots = 0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(words) == 0 {
		return p, nil
	}
	// Every keyword's posting length is recorded, even past an empty one:
	// a shard's PostingRoots are summed with its siblings', which may hold
	// roots for the keywords this shard lacks.
	p.ok = true
	p.rootLists = make([][]kg.NodeID, len(words))
	p.stats.PostingRoots = make([]int, len(words))
	for i, w := range words {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if w != text.NoWord {
			p.rootLists[i] = ix.Roots(w)
		}
		p.stats.PostingRoots[i] = len(p.rootLists[i])
		p.ok = p.ok && len(p.rootLists[i]) > 0
	}
	if !p.ok {
		p.rootLists = nil
		return p, nil
	}
	p.stats.CandidateRoots = -1

	if need&needTypes != 0 {
		typeLists := make([][]kg.TypeID, len(words))
		for i, w := range words {
			typeLists[i] = ix.RootTypes(w)
		}
		p.rootTypes = intersectTypes(typeLists)
		p.stats.RootTypes = len(p.rootTypes)
	}
	if need&needRoots != 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.candidates = intersectSorted(nil, p.rootLists...)
		p.stats.CandidateRoots = len(p.candidates)
		p.byType = map[kg.TypeID][]kg.NodeID{}
		for _, r := range p.candidates {
			t := ix.Graph().Type(r)
			p.byType[t] = append(p.byType[t], r)
		}
		p.types = make([]kg.TypeID, 0, len(p.byType))
		for t := range p.byType {
			p.types = append(p.types, t)
		}
		sortTypes(p.types)
	}
	if need&needCost != 0 {
		pc := &pollCancel{ctx: ctx}
		p.stats.Frontier = subtreeCountPoll(ix, words, p.candidates, pc)
		for _, c := range p.rootTypes {
			prod := int64(1)
			for _, w := range words {
				n := int64(len(ix.PatternsOfType(w, c)))
				if n == 0 || prod > math.MaxInt64/n {
					prod = math.MaxInt64
					break
				}
				prod *= n
			}
			p.stats.PatternSpace = satAdd(p.stats.PatternSpace, prod)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// needFor maps a (possibly unresolved) algorithm to its prepare needs.
func needFor(algo Algo) prepNeed {
	switch algo {
	case AlgoPE:
		return needTypes
	case AlgoLE:
		return needRoots
	default:
		return needCost
	}
}

// PlanProbe runs only the prepare stage over one index: the planner's
// statistics for a query's words (the caller's ResolveQuery against the
// index's dictionary), without executing it. The shard layer scatters
// probes and merges their PlanStats for every Auto search over N > 1
// shards and for the facade's Plan and Explain.
func PlanProbe(ctx context.Context, ix *index.Index, words []text.WordID, opts Options) (PlanStats, error) {
	prep, err := prepare(ctx, ix, words, needCost)
	if err != nil {
		return PlanStats{}, err
	}
	return prep.stats, nil
}

// Execute runs one query through the staged pipeline on a path index.
// algo may be AlgoAuto (resolved by the planner after prepare) but not
// AlgoBaseline, which runs on its own index (BaselineIndex.SearchCtx).
func Execute(ctx context.Context, ix *index.Index, query string, algo Algo, opts Options) (*Result, error) {
	words, surfaces := ResolveQuery(ix.Dict(), query)
	return execute(ctx, ix, words, surfaces, algo, opts.withDefaults(), true)
}

// Scatter is one shard's leg of a scatter-gather search: Execute without
// the ranking, over the caller's resolution of the query (ResolveQuery
// against the dictionary the index shares). It returns every tree pattern
// the index holds for the query, once, with its per-root partials and no
// trees, in ascending content order (core.TreePattern.CompareContent), so
// the gather merges legs. A leg must not rank or prune, since a pattern
// split across shards can rank below each shard's k-th score yet inside
// the global top-k; opts.K only sizes LINEARENUM's sampled selection.
func Scatter(ctx context.Context, ix *index.Index, words []text.WordID, surfaces []string, algo Algo, opts Options) (*Result, error) {
	o := opts.withDefaults()
	o.CollectRootAggs, o.SkipTrees = true, true
	return execute(ctx, ix, words, surfaces, algo, o, false)
}

// execute is the pipeline under Execute and, unranked, Scatter.
func execute(ctx context.Context, ix *index.Index, words []text.WordID, surfaces []string, algo Algo, o Options, ranked bool) (*Result, error) {
	start := time.Now()
	if algo == AlgoBaseline {
		return nil, fmt.Errorf("search: the baseline runs on a BaselineIndex, not a path index")
	}

	// Stage 1: prepare (posting lookups, statistics).
	prep, err := prepare(ctx, ix, words, needFor(algo))
	if err != nil {
		return nil, err
	}
	plan := ChoosePlan(algo, prep.stats)
	stats := QueryStats{Surfaces: surfaces, Words: words}
	stats.CandidateRoots = prep.stats.CandidateRoots
	stats.Stages.Prepare = time.Since(start)

	// Stage 2: enumerate (the resolved algorithm's frontier walk, sharded
	// across the worker pool with scoring fused in).
	t1 := time.Now()
	order := byContent(ix.PatternTable())
	var top *core.TopK[RankedPattern]
	k := 0 // a scatter leg's workers list every pattern
	if ranked {
		top, k = core.NewTopK(o.K, order), o.K
	}
	var ws []workerState[RankedPattern]
	if prep.ok {
		ws = newWorkerStates(resolveWorkers(o.Workers), k, order)
		switch plan.Algo {
		case AlgoPE:
			err = peEnumerate(ctx, ix, prep, o, ws)
		case AlgoLE:
			err = leEnumerate(ctx, ix, prep, o, ws)
		default:
			return nil, fmt.Errorf("search: plan resolved to unexecutable algorithm %v", plan.Algo)
		}
	}
	stats.Stages.Enumerate = time.Since(t1)

	// Stage 3: aggregate (fold per-worker heaps and counters into the
	// global queue). The runShards error is checked after the fold so a
	// canceled query still pays for no extra work, matching the previous
	// per-algorithm control flow.
	t2 := time.Now()
	patterns := mergeWorkerStates(ws, top, &stats)
	stats.Stages.Aggregate = time.Since(t2)
	if err != nil {
		return nil, err
	}

	// Stage 4: rank (extract winners, materialize their subtrees; a
	// scatter leg puts its patterns in content order instead).
	t3 := time.Now()
	if ranked {
		patterns = top.Results()
	} else {
		patterns = sortByContent(ix.PatternTable(), patterns)
	}
	if !o.SkipTrees {
		if err := materializeAll(ctx, ix, prep.words, patterns, o); err != nil {
			return nil, err
		}
	}
	stats.Stages.Rank = time.Since(t3)
	stats.Elapsed = time.Since(start)
	return &Result{Patterns: patterns, Stats: stats, Plan: plan}, nil
}

// byContent orders the ranked patterns of one table by content
// (core.TreePattern.CompareContent): the tie-break of every pattern top-k.
func byContent(pt *core.PatternTable) func(a, b RankedPattern) int {
	return func(a, b RankedPattern) int { return a.Pattern.CompareContent(pt, b.Pattern, pt) }
}

// sortByContent returns the patterns of one index in content order: it
// sorts a permutation with CompareContent.
func sortByContent(pt *core.PatternTable, pats []RankedPattern) []RankedPattern {
	perm := make([]int32, len(pats))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return pats[a].Pattern.CompareContent(pt, pats[b].Pattern, pt) })
	out := make([]RankedPattern, len(pats))
	for i, j := range perm {
		out[i] = pats[j]
	}
	return out
}

// sortTypes sorts TypeIDs ascending (the deterministic per-type iteration
// order every aggregation site relies on).
func sortTypes(ts []kg.TypeID) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}
