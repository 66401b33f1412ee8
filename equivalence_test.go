package kbtable

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/search"
	"kbtable/internal/shard"
)

// The deep dump of the golden queries: per run the plan and every
// QueryStats counter, per ranked pattern its score, aggregate, content
// key, per-root partials and materialized trees, per query the individual
// top trees and the answer counts. The reference's (one shard, one worker,
// search.Execute on one index, the baseline on its own) is committed as testdata/deep/<corpus>.txt
// and rewritten with the goldens (`make golden`). Floats print in the
// shortest form that parses back to the same float64, so equal text means
// equal bits; wall-clock timings are never dumped.

// deepSet is one option set of the dump.
type deepSet struct {
	name string
	o    search.Options
}

// deepSets: the golden shape, each Agg, another scorer, per-root partials,
// the tree-shape filter, two sampled settings, a small K with every tree.
var deepSets = []deepSet{
	{"default", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows}},
	{"max", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows, Agg: core.AggMax}},
	{"avg", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows, Agg: core.AggAvg}},
	{"count", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows, Agg: core.AggCount}},
	{"scorer", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows, Scorer: &core.Scorer{Z1: -2, Z2: 0.5, Z3: 2}}},
	{"rootaggs", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows, CollectRootAggs: true}},
	{"treeshape", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows, RequireTreeShape: true}},
	{"sampled1", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows, Lambda: 1, Rho: 0.5, Seed: 7}},
	{"sampled2", search.Options{K: goldenK, MaxTreesPerPattern: goldenRows, Lambda: 16, Rho: 0.3, Seed: 42}},
	{"k3all", search.Options{K: 3}},
}

// deepCell names one block of the dump: a run of one algorithm under one
// option set, or (set "trees", no algorithm) a query's individual top
// trees and answer counts.
type deepCell struct{ query, set, algo string }

func (c deepCell) head() string {
	return strings.TrimSpace(fmt.Sprintf("@ %q %s %s", c.query, c.set, c.algo))
}

// deepAlgos are the algorithms every option set runs; the baseline runs
// the default set only.
var deepAlgos = map[string]search.Algo{"PETopK": search.AlgoPE, "LETopK": search.AlgoLE, "Auto": search.AlgoAuto, "Baseline": search.AlgoBaseline}

// deepCells lists the dump's cells in file order.
func deepCells(queries []string) []deepCell {
	var out []deepCell
	for _, q := range queries {
		for _, s := range deepSets {
			for _, a := range []string{"PETopK", "LETopK", "Auto", "Baseline"} {
				if a != "Baseline" || s.name == "default" {
					out = append(out, deepCell{q, s.name, a})
				}
			}
		}
		out = append(out, deepCell{query: q, set: "trees"})
	}
	return out
}

// deepResult is one run in the dumper's form. RootAggs are set only where
// the surface exposes them: search.Result does, the engine's does not.
type deepResult struct {
	plan     search.Plan
	stats    search.QueryStats
	patterns []search.RankedPattern
	tables   []*core.PatternTable // tables[i] resolves patterns[i]
}

// deepRunner is one configuration under test: how it runs a query, ranks
// individual trees, and counts a query's answers.
type deepRunner struct {
	search func(q string, algo search.Algo, o search.Options) (deepResult, error)
	trees  func(q string) (top []shard.RankedTree, st search.QueryStats, patterns int, subtrees int64)
}

// executorRunner runs search.Execute on one index built from g, and the
// baseline on a BaselineIndex built from g — at one worker, the reference.
func executorRunner(t *testing.T, g *Graph, workers int) deepRunner {
	ix, err := index.Build(g.g, index.Options{D: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := search.NewBaseline(g.g, search.BaselineOptions{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	return deepRunner{
		search: func(q string, algo search.Algo, o search.Options) (deepResult, error) {
			o.Workers = workers
			var out deepResult
			pt := ix.PatternTable()
			if algo == search.AlgoBaseline {
				res, err := bl.SearchCtx(context.Background(), q, o)
				if err != nil {
					return deepResult{}, err
				}
				out, pt = deepResult{plan: res.Plan, stats: res.Stats, patterns: res.Patterns}, res.Table // the baseline interns its own
			} else {
				res, err := search.Execute(context.Background(), ix, q, algo, o)
				if err != nil {
					return deepResult{}, err
				}
				out = deepResult{plan: res.Plan, stats: res.Stats, patterns: res.Patterns}
			}
			for range out.patterns {
				out.tables = append(out.tables, pt)
			}
			return out, nil
		},
		trees: func(q string) ([]shard.RankedTree, search.QueryStats, int, int64) {
			words, surfaces := search.ResolveQuery(ix.Dict(), q)
			trees, st := search.TopTrees(ix, words, surfaces, goldenK, search.Options{})
			top := make([]shard.RankedTree, len(trees))
			for i, rt := range trees {
				top[i] = shard.RankedTree{RankedTree: rt, Table: ix.PatternTable()}
			}
			p, n, _ := search.CountAllCapped(ix, q, 0)
			return top, st, p, n
		},
	}
}

// engineRunner runs the engine at one worker: Baseline on its whole-graph
// baseline, the others on the shard layer through legs (nil: every leg in
// process). The answer counts are the probe's subtree count and the
// content-keyed pattern union.
func engineRunner(e *Engine, legs func(q string, o search.Options) shard.Legs) deepRunner {
	ctx := context.Background()
	sh := e.sh
	return deepRunner{
		search: func(q string, algo search.Algo, o search.Options) (deepResult, error) {
			o.Workers = 1
			var res *shard.Result
			var err error
			if algo == search.AlgoBaseline {
				res, err = e.searchBaseline(ctx, q, o)
			} else {
				var l shard.Legs
				if legs != nil {
					l = legs(q, o)
				}
				res, err = sh.Search(ctx, algo, q, o, l)
			}
			if err != nil {
				return deepResult{}, err
			}
			out := deepResult{plan: res.Plan, stats: res.Stats}
			for _, rp := range res.Patterns {
				out.patterns = append(out.patterns, search.RankedPattern{Pattern: rp.Pattern, Agg: rp.Agg, Score: rp.Score, Trees: rp.Trees})
				out.tables = append(out.tables, rp.Table)
			}
			return out, nil
		},
		trees: func(q string) ([]shard.RankedTree, search.QueryStats, int, int64) {
			top, st := sh.TopTrees(q, goldenK, search.Options{})
			words, _ := search.ResolveQuery(sh.Dict(), q)
			probe, _ := sh.PlanStats(ctx, words, search.Options{}, nil) // a failed probe counts 0 and fails the comparison
			return top, st, sh.CountAllContent(words), probe.Frontier
		},
	}
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func aggText(a core.PatternScore) string {
	return fmt.Sprintf("sum=%s max=%s count=%d", fmtFloat(a.Sum), fmtFloat(a.Max), a.Count)
}

// ints joins integers with commas ("-" for none).
func ints[T ~int | ~int32](xs []T) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(int(x))
	}
	return cmp.Or(strings.Join(s, ","), "-")
}

// edgeMark is "!" for an edge match.
func edgeMark(edgeEnd bool) string {
	if edgeEnd {
		return "!"
	}
	return ""
}

// contentText renders a tree pattern's content key: per keyword the path
// pattern's alternating type and attribute IDs, "!" marking an edge match.
func contentText(pt *core.PatternTable, tp core.TreePattern) string {
	var paths []string
	for _, id := range tp.Paths {
		p := pt.Get(id)
		var ids []int
		for j, ty := range p.Types {
			ids = append(ids, int(ty))
			if j < len(p.Attrs) {
				ids = append(ids, int(p.Attrs[j]))
			}
		}
		paths = append(paths, strings.ReplaceAll(ints(ids), ",", ".")+edgeMark(p.EdgeEnd))
	}
	return strings.Join(paths, "|")
}

// treeText renders a materialized subtree: its root, then per keyword the
// path's edge IDs ("-" for the root itself), "!" marking an edge match.
func treeText(st core.Subtree) string {
	out := "tree " + strconv.Itoa(int(st.Root))
	for _, p := range st.Paths {
		out += " " + ints(p.Edges) + edgeMark(p.EdgeEnd)
	}
	return out
}

// deepDump runs and renders every cell of the dump that axes run. An
// answer block equal to an earlier algorithm's for the same query and
// option set prints as "same <algorithm>".
func deepDump(t *testing.T, queries []string, r deepRunner, axes []string) map[deepCell][]string {
	t.Helper()
	out := map[deepCell][]string{}
	first := map[string]string{} // query, set and answer block -> first algorithm
	for _, c := range deepCells(queries) {
		if applies(axes, c, "-") {
			continue
		}
		if c.set == "trees" {
			top, st, patterns, subtrees := r.trees(c.query)
			out[c] = []string{fmt.Sprintf("count patterns=%d trees=%d", patterns, subtrees),
				fmt.Sprintf("stats cand=%d trees=%d pruned=%d", st.CandidateRoots, st.TreesFound, st.BoundPruned)}
			for i, rt := range top {
				out[c] = append(out[c], fmt.Sprintf("#%d score=%s key=%s", i+1, fmtFloat(rt.Score), contentText(rt.Table, rt.Pattern)), treeText(rt.Tree))
			}
			continue
		}
		res, err := r.search(c.query, deepAlgos[c.algo], deepSets[slices.IndexFunc(deepSets, func(s deepSet) bool { return s.name == c.set })].o)
		if err != nil {
			t.Fatalf("%s: %v", c.head(), err)
		}
		p, st := res.plan, res.stats
		block := []string{fmt.Sprintf("answers %d", len(res.patterns))}
		for i, rp := range res.patterns {
			block = append(block, fmt.Sprintf("#%d score=%s %s key=%s", i+1, fmtFloat(rp.Score), aggText(rp.Agg), contentText(res.tables[i], rp.Pattern)))
			for _, ra := range rp.RootAggs {
				block = append(block, fmt.Sprintf("root %d %s", ra.Root, aggText(ra.Agg)))
			}
			for _, st := range rp.Trees {
				block = append(block, treeText(st))
			}
		}
		key := strings.Join(append([]string{c.query, c.set}, block...), "\n")
		if a, ok := first[key]; ok {
			block = []string{"same " + a}
		} else {
			first[key] = c.algo
		}
		out[c] = append([]string{
			fmt.Sprintf("plan algo=%v auto=%t cand=%d types=%d space=%d frontier=%d postings=%s", p.Algo, p.Auto,
				p.Stats.CandidateRoots, p.Stats.RootTypes, p.Stats.PatternSpace, p.Stats.Frontier, ints(p.Stats.PostingRoots)),
			fmt.Sprintf("stats cand=%d sampled=%d patterns=%d trees=%d empty=%d pruned=%d",
				st.CandidateRoots, st.SampledRoots, st.PatternsFound, st.TreesFound, st.EmptyChecked, st.BoundPruned),
		}, block...)
	}
	return out
}

func deepPath(corpus string) string { return filepath.Join("testdata", "deep", corpus+".txt") }

// writeDeep rewrites a corpus's committed reference dump.
func writeDeep(t *testing.T, spec corpusSpec, g *Graph) {
	dump := deepDump(t, spec.queries, executorRunner(t, g, 1), nil)
	var text strings.Builder
	fmt.Fprintf(&text, "# kbtable deep oracle for testdata/corpus/%s.txt: D 3, one shard, one worker, search.Executor on one index.\n", spec.name)
	text.WriteString("# Rewritten by `make golden`; TestEquivalenceMatrix checks every equivalent configuration against it.\n")
	for _, c := range deepCells(spec.queries) {
		text.WriteString(strings.Join(append([]string{c.head()}, dump[c]...), "\n") + "\n")
	}
	writeFile(t, deepPath(spec.name), text.String())
}

// readDeep parses a committed dump back into its cells; a cell it lacks
// fails the comparison.
func readDeep(t *testing.T, spec corpusSpec) map[deepCell][]string {
	data, err := os.ReadFile(deepPath(spec.name))
	if err != nil {
		t.Fatalf("read deep oracle: %v (regenerate with `make golden`)", err)
	}
	byHead := map[string]deepCell{}
	for _, c := range deepCells(spec.queries) {
		byHead[c.head()] = c
	}
	out := map[deepCell][]string{}
	for _, block := range strings.Split(string(data), "\n@ ")[1:] {
		lines := strings.Split(strings.TrimSuffix("@ "+block, "\n"), "\n")
		c, ok := byHead[lines[0]]
		if !ok {
			t.Fatalf("deep oracle cell %s is not in the matrix (regenerate with `make golden`)", lines[0])
		}
		out[c] = lines[1:]
	}
	return out
}

// knownDiff is one field an axis legitimately reports differently, in the
// cells (algorithms or option sets, space separated; "" for all) it names.
// field is "<line>.<key>"; "root" for the per-root lines; "stats" for
// counters compared with the explicit run of the algorithm the plan names;
// or "-" when the axis does not run the cell.
type knownDiff struct{ axis, cells, field, reason string }

// knownDiffs is every difference the matrix tolerates, on the axes
// "engine" (the shard layer's gathered result, not the executor's),
// "sharded" (N > 1), "cluster" (legs on owner engines) and "updated"
// (ApplyUpdate against a build over the final graph).
var knownDiffs = []knownDiff{
	{"engine", "", "root", "the engine's ranked patterns carry no per-root partials; the gather folds them into Agg"},
	{"sharded", "sampled1 sampled2", "-", "Λ/ρ sampling draws per shard: a different, still unbiased, estimate"},
	{"sharded", "", "plan.types", "root types merge by max over shards, a lower bound of the global count"},
	{"sharded", "Auto", "plan.space", "the merged probe sums pattern space over shards, counting a pattern once per shard holding its roots"},
	{"sharded", "Auto", "plan.algo", "the summed pattern space can tip Auto to the other algorithm"},
	{"sharded", "Auto", "stats", "Auto runs the scatter of the algorithm it resolved to, so its counters are that explicit run's"},
	{"sharded", "PETopK", "stats.pruned", "a scatter leg surfaces every pattern, so it never prunes"},
	{"sharded", "PETopK", "stats.patterns", "combinations the reference pruned never reached its pattern count"},
	{"sharded", "PETopK", "stats.trees", "combinations the reference pruned never reached its tree count"},
	{"sharded", "PETopK", "stats.empty", "empty combinations count per shard: one can be empty on one shard and not on another"},
	{"sharded", "trees", "stats.pruned", "each shard prunes roots against its own top-k heap"},
	{"cluster", "max avg count rootaggs k3all", "-", "a leg's partial holds the same patterns and root partials whatever the Agg, K or row cap, so the default set's legs already send these over the wire"},
	{"updated", "PETopK", "stats.pruned", "PATTERNENUM meets combinations in PatternID order, which ApplyDelta (old IDs kept, new ones appended) and a build (first-seen order) assign differently, so its bound fires at other points"},
	{"updated", "PETopK", "stats.patterns", "combinations one side pruned never reached its pattern count"},
	{"updated", "PETopK", "stats.trees", "combinations one side pruned never reached its tree count"},
}

// matching returns the rows of knownDiffs that apply on axes to c.
func matching(axes []string, c deepCell) []knownDiff {
	var out []knownDiff
	for _, d := range knownDiffs {
		cells := strings.Fields(d.cells)
		if slices.Contains(axes, d.axis) && (len(cells) == 0 || slices.Contains(cells, c.set) || slices.Contains(cells, c.algo)) {
			out = append(out, d)
		}
	}
	return out
}

func applies(axes []string, c deepCell, field string) bool {
	return slices.ContainsFunc(matching(axes, c), func(d knownDiff) bool { return d.field == field })
}

// masked renders lines with the per-root lines dropped and the
// "<line>.<key>" fields diffs name blanked.
func masked(lines []string, diffs []knownDiff) string {
	var out []string
	for _, l := range lines {
		toks := strings.Fields(l)
		for _, d := range diffs {
			if d.field == "root" && toks[0] == "root" {
				toks = nil
				break
			}
			line, key, _ := strings.Cut(d.field, ".")
			for j, tok := range toks {
				if toks[0] == line && strings.HasPrefix(tok, key+"=") {
					toks[j] = key + "=*"
				}
			}
		}
		if toks != nil {
			out = append(out, strings.Join(toks, " "))
		}
	}
	return strings.Join(out, "\n")
}

// compareDeep checks got against want cell by cell under the known
// differences of axes, reporting the first cell that differs.
func compareDeep(t *testing.T, queries []string, axes []string, want, got map[deepCell][]string) {
	t.Helper()
	for _, c := range deepCells(queries) {
		if applies(axes, c, "-") {
			continue
		}
		w, diffs := want[c], matching(axes, c)
		if applies(axes, c, "stats") {
			// Line 1, the counters, is the explicit run's of the algorithm
			// the plan (line 0) names, under that run's known differences.
			rc := deepCell{c.query, c.set, strings.TrimPrefix(strings.Fields(got[c][0])[1], "algo=")}
			w = append([]string{w[0], want[rc][1]}, w[2:]...)
			diffs = append(diffs, matching(axes, rc)...)
		}
		if ws, gs := masked(w, diffs), masked(got[c], diffs); ws != gs {
			t.Fatalf("%s: %s", c.head(), diffHint(ws, gs))
		}
	}
}

// legMark is added to the bound-pruned count of every partial wireLegs
// sends. A scatter leg never prunes (it must surface every pattern), so
// the gathered count divided by legMark is the number of partials the
// coordinator accepted; every other scattered leg re-ran on its own shard.
const legMark = 1 << 32

// wireLegs runs every shard leg of one query on the shard's owner engine
// and sends what crosses the wire through the codecs internal/cluster's
// transport uses (JSON probe statistics, binary scatter frames), marking
// each partial with legMark.
type wireLegs struct {
	owners               []*Engine // owners[si] hosts shard si
	query                string
	opts                 search.Options
	scattered, fallbacks *atomic.Int64
}

func (l wireLegs) Probe(ctx context.Context, si int) (rt shard.WirePlanStats, err error) {
	st, err := l.owners[si].sh.ProbeShard(ctx, si, l.query, l.opts)
	if err == nil {
		err = roundTrip(st, &rt)
	}
	if err != nil {
		l.fallbacks.Add(1)
	}
	return rt, err
}

func (l wireLegs) Scatter(ctx context.Context, si int, algo search.Algo) (*shard.WirePartial, error) {
	l.scattered.Add(1)
	p, err := l.owners[si].sh.ScatterShard(ctx, si, algo, l.query, l.opts)
	if err != nil {
		return nil, err
	}
	p.BoundPruned += legMark
	_, rt, err := shard.DecodePartial(shard.AppendPartial(nil, 0, p))
	return rt, err
}

// clusterRunner runs the coordinator's searches with every leg on owners,
// adding each leg that fell back to its own shard to fallbacks.
func clusterRunner(coord *Engine, owners []*Engine, fallbacks *atomic.Int64) deepRunner {
	var scattered atomic.Int64
	r := engineRunner(coord, func(q string, o search.Options) shard.Legs {
		return wireLegs{owners, q, o, &scattered, fallbacks}
	})
	run := r.search
	r.search = func(q string, algo search.Algo, o search.Options) (deepResult, error) {
		scattered.Store(0)
		res, err := run(q, algo, o)
		fallbacks.Add(scattered.Load() - res.stats.BoundPruned/legMark)
		res.stats.BoundPruned %= legMark
		return res, err
	}
	return r
}

func matrixEngine(t *testing.T, g *Graph, n int, owned ...int) *Engine {
	e, err := NewEngine(g, EngineOptions{D: 3, Shards: n, OwnedShards: owned})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEquivalenceMatrix states the equivalences the design rests on —
// PATTERNENUM ≡ LINEARENUM ≡ Auto, parallel ≡ serial, sharded ≡ unsharded
// (Theorem 5), load ≡ build, cluster ≡ single node, incremental ≡ rebuild —
// over the deep dump, one axis at a time so that a break specific to one
// regime cannot hide behind a passing one. Against the committed
// reference: workers{2,4}, shards{1,2,3,8}, recovered{1,3} (Checkpoint
// then Store.Recover) and cluster{2,3} (every leg on a partial owner
// engine through the wire codecs, with zero local fallbacks). After one fixed ApplyUpdate chain: the
// engine it maintained at shards {1, 3} against NewEngine over the final
// graph at the same count, and the cluster legs against that rebuild at
// one shard. The shards axis dumps the engines the chain superseded, so
// they must still answer from their snapshot. Auto must resolve to both
// algorithms somewhere.
func TestEquivalenceMatrix(t *testing.T) {
	var resolved [2]atomic.Int64 // Auto runs per resolved algorithm
	t.Run("corpora", func(t *testing.T) {
		for _, spec := range goldenCorpora() {
			t.Run(spec.name, func(t *testing.T) {
				t.Parallel()
				testMatrix(t, spec, &resolved)
			})
		}
	})
	if resolved[search.AlgoPE].Load() == 0 || resolved[search.AlgoLE].Load() == 0 {
		t.Fatalf("Auto must resolve to both algorithms somewhere in the matrix: PE %d, LE %d",
			resolved[search.AlgoPE].Load(), resolved[search.AlgoLE].Load())
	}
}

func testMatrix(t *testing.T, spec corpusSpec, resolved *[2]atomic.Int64) {
	g := spec.graph(t)
	engines, owners, updated, updatedOwners := map[int]*Engine{}, map[int][]*Engine{}, map[int]*Engine{}, map[int][]*Engine{}
	for _, n := range []int{1, 2, 3, 8} {
		engines[n] = matrixEngine(t, g, n)
	}
	chain, results, final := updateChain(t, engines[1])
	updated[1] = final
	for _, n := range []int{2, 3} {
		updated[n] = replay(t, engines[n], chain, results)
		for si := 0; si < n; si++ {
			owners[n] = append(owners[n], matrixEngine(t, g, n, si))
			updatedOwners[n] = append(updatedOwners[n], replay(t, owners[n][si], chain, nil))
		}
	}
	rebuilt := map[int]map[deepCell][]string{}
	for _, n := range []int{1, 3} {
		rebuilt[n] = deepDump(t, spec.queries, engineRunner(matrixEngine(t, final.Graph(), n), nil), nil)
	}

	fixture := readDeep(t, spec)
	var fallbacks atomic.Int64
	engine, sharded, cluster := []string{"engine"}, []string{"engine", "sharded"}, []string{"engine", "sharded", "cluster"}
	configs := []struct {
		name string
		axes []string
		run  deepRunner
		want map[deepCell][]string
	}{
		{"reference", nil, executorRunner(t, g, 1), fixture},
		{"workers2", nil, executorRunner(t, g, 2), fixture},
		{"workers4", nil, executorRunner(t, g, 4), fixture},
		{"shards1", engine, engineRunner(engines[1], nil), fixture},
		{"shards2", sharded, engineRunner(engines[2], nil), fixture},
		{"shards3", sharded, engineRunner(engines[3], nil), fixture},
		{"shards8", sharded, engineRunner(engines[8], nil), fixture},
		{"recovered1", engine, engineRunner(recovered(t, engines[1]), nil), fixture},
		{"recovered3", sharded, engineRunner(recovered(t, engines[3]), nil), fixture},
		{"cluster2", cluster, clusterRunner(engines[2], owners[2], &fallbacks), fixture},
		{"cluster3", cluster, clusterRunner(engines[3], owners[3], &fallbacks), fixture},
		{"updated1", []string{"updated"}, engineRunner(updated[1], nil), rebuilt[1]},
		{"updated3", []string{"updated"}, engineRunner(updated[3], nil), rebuilt[3]},
		{"updated-cluster2", cluster, clusterRunner(updated[2], updatedOwners[2], &fallbacks), rebuilt[1]},
		{"updated-cluster3", cluster, clusterRunner(updated[3], updatedOwners[3], &fallbacks), rebuilt[1]},
	}
	t.Run("configs", func(t *testing.T) {
		for _, c := range configs {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				got := deepDump(t, spec.queries, c.run, c.axes)
				for cell, lines := range got {
					if cell.algo == "Auto" {
						resolved[deepAlgos[strings.TrimPrefix(strings.Fields(lines[0])[1], "algo=")]].Add(1)
					}
				}
				compareDeep(t, spec.queries, c.axes, c.want, got)
			})
		}
	})
	if n := fallbacks.Load(); n != 0 {
		t.Errorf("%d cluster legs fell back to the coordinator's own shard", n)
	}
	if _, err := engines[3].PrepareContext(context.Background(), spec.queries[0], SearchOptions{Algorithm: Baseline}); err == nil {
		t.Error("Prepare accepted Baseline, which has no prepare stage")
	}
}

// updateChain applies the matrix's fixed update chain, eight accepted
// random batches from a fixed seed, to e.
func updateChain(t *testing.T, e *Engine) (chain []Update, results []UpdateResult, final *Engine) {
	rng := rand.New(rand.NewSource(28))
	for len(chain) < 8 {
		u := randomBatchAccepted(t, rng, e)
		ne, res, _ := e.ApplyUpdate(u)
		chain, results, e = append(chain, u), append(results, res), ne
	}
	return chain, results, e
}

// replay applies chain to e. With want, the one-shard chain's results,
// every step must report the same result but for the shards it touched,
// which must lie within the partition.
func replay(t *testing.T, e *Engine, chain []Update, want []UpdateResult) *Engine {
	n := e.sh.NumShards()
	for i, u := range chain {
		ne, res, err := e.ApplyUpdate(u)
		if err != nil {
			t.Fatalf("step %d shards=%d: %v", i, n, err)
		}
		if want != nil {
			got := res
			got.AffectedShards, got.Elapsed = want[i].AffectedShards, want[i].Elapsed
			if !reflect.DeepEqual(got, want[i]) || res.AffectedShards < 1 || res.AffectedShards > n {
				t.Fatalf("step %d shards=%d: update result %+v, one shard %+v", i, n, res, want[i])
			}
		}
		e = ne
	}
	return e
}

// recovered checkpoints e into a fresh store and recovers it.
func recovered(t *testing.T, e *Engine) *Engine {
	st, err := OpenStoreOpts(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if cs, err := e.Checkpoint(st); err != nil || cs.Skipped {
		t.Fatalf("checkpoint: %+v err=%v", cs, err)
	}
	rec, _, err := st.Recover(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestScatterLegContract holds search.Scatter, the shard leg every N > 1
// search gathers, to its contract on each golden query under PE and LE:
// the same output at one worker and at four; patterns strictly ascending
// by ContentKey; and, pattern for pattern with root partials, Execute's
// answer set under an unbounded K and CollectRootAggs, put in that order.
func TestScatterLegContract(t *testing.T) {
	ctx := context.Background()
	for _, spec := range goldenCorpora() {
		ix, err := index.Build(spec.graph(t).g, index.Options{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		pt := ix.PatternTable()
		for _, q := range spec.queries {
			words, surfaces := search.ResolveQuery(ix.Dict(), q)
			for _, algo := range []search.Algo{search.AlgoPE, search.AlgoLE} {
				var legs [2][]search.RankedPattern
				for i, workers := range []int{1, 4} {
					res, err := search.Scatter(ctx, ix, words, surfaces, algo, search.Options{K: goldenK, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					legs[i] = res.Patterns
				}
				if !reflect.DeepEqual(legs[0], legs[1]) {
					t.Fatalf("%s %q %v: the leg differs between 1 and 4 workers", spec.name, q, algo)
				}
				for i := 1; i < len(legs[0]); i++ {
					if legs[0][i-1].Pattern.ContentKey(pt) >= legs[0][i].Pattern.ContentKey(pt) {
						t.Fatalf("%s %q %v: patterns %d and %d are not in strictly ascending content order", spec.name, q, algo, i-1, i)
					}
				}
				ref, err := search.Execute(ctx, ix, q, algo, search.Options{K: 1 << 30, CollectRootAggs: true, SkipTrees: true, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				slices.SortFunc(ref.Patterns, func(a, b search.RankedPattern) int {
					return strings.Compare(a.Pattern.ContentKey(pt), b.Pattern.ContentKey(pt))
				})
				if len(ref.Patterns) == 0 && len(legs[0]) == 0 {
					continue
				}
				if !reflect.DeepEqual(legs[0], ref.Patterns) {
					t.Fatalf("%s %q %v: the leg's %d patterns differ from Execute's %d in content order", spec.name, q, algo, len(legs[0]), len(ref.Patterns))
				}
			}
		}
	}
}
