package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
	"kbtable/internal/shard"
	"math"
)

// ShardBenchConfig scales the shard-scaling benchmark (the BENCH
// trajectory emitted as BENCH_kbtable.json).
type ShardBenchConfig struct {
	// Entities / Types scale the SynthWiki corpus; defaults 4000 / 60.
	Entities int
	Types    int
	// Movies scales the SynthIMDB corpus of the planner ablation;
	// default 1200.
	Movies int
	// Queries is the number of workload queries; default 12.
	Queries int
	// K is the top-k cutoff; default 10.
	K int
	// Shards are the partition widths measured; default {1, 2, 4}.
	Shards []int
	// Seed fixes dataset and workload; default 1.
	Seed int64
}

func (c ShardBenchConfig) withDefaults() ShardBenchConfig {
	if c.Entities == 0 {
		c.Entities = 4000
	}
	if c.Types == 0 {
		c.Types = 60
	}
	if c.Movies == 0 {
		c.Movies = 1200
	}
	if c.Queries == 0 {
		c.Queries = 12
	}
	if c.K == 0 {
		c.K = 10
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ShardBenchResult is one measured configuration.
type ShardBenchResult struct {
	// Name identifies the configuration ("serial" or "shards-N").
	Name string `json:"name"`
	// Shards is 0 for the serial reference: one index driven through the
	// search layer at Workers=1, below the engine.
	Shards int `json:"shards"`
	// NsPerOp / BytesPerOp / AllocsPerOp are per benchmark op; one op
	// answers the whole query workload once (PATTERNENUM, top-K).
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// SpeedupVsSerial is serial ns/op divided by this configuration's.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// PlannerBenchResult is one planner-ablation row: a corpus × algorithm
// cell of the PE vs LE vs Auto comparison.
type PlannerBenchResult struct {
	// Corpus is "wiki" or "imdb".
	Corpus string `json:"corpus"`
	// Algo is "pe", "le" or "auto".
	Algo string `json:"algo"`
	// NsPerOp answers the corpus's whole query workload once.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// SpeedupVsPE is the pe row's ns/op divided by this row's.
	SpeedupVsPE float64 `json:"speedup_vs_pe"`
	// ChosePE / ChoseLE split the planner's per-query decisions across
	// the workload (auto rows only).
	ChosePE int `json:"chose_pe,omitempty"`
	ChoseLE int `json:"chose_le,omitempty"`
}

// StreamingBenchResult is one streaming-executor ablation row: a
// (algorithm, mode) cell comparing the streaming default against the
// staged baseline (Options.Staged) on the wiki workload, serial, with
// tree materialization off — the enumerate+aggregate path the streaming
// rewrite targets.
type StreamingBenchResult struct {
	// Algo is "pe" or "le".
	Algo string `json:"algo"`
	// Mode is "staged" (the ablation baseline) or "streaming".
	Mode string `json:"mode"`
	// NsPerOp answers the whole query workload once.
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// SpeedupVsStaged is the staged row's ns/op divided by this row's
	// (1 on staged rows).
	SpeedupVsStaged float64 `json:"speedup_vs_staged"`
	// AllocReductionVsStaged is 1 - allocs/op ÷ staged allocs/op
	// (0 on staged rows).
	AllocReductionVsStaged float64 `json:"alloc_reduction_vs_staged"`
}

// PlanCacheBenchResult is one plan-cache / prepared-query ablation row:
// the same Auto workload executed cold (planner probe + execution, a
// fresh request), against a warm plan cache (probe skipped), against a
// retained prepare stage (only enumerate→aggregate→rank runs).
type PlanCacheBenchResult struct {
	// Mode is "cold", "cached" or "prepared".
	Mode string `json:"mode"`
	// NsPerOp is the geometric mean over the workload's queries of one
	// query's execution time — the paper suite's geo-time convention. A
	// repeat-query benchmark weighs each query shape equally; a plain
	// total would let one scan-heavy query swamp the point lookups the
	// plan cache and prepared statements exist to serve.
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is the matching geometric mean of allocations.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// SpeedupVsCold is the cold row's ns/op divided by this row's.
	SpeedupVsCold float64 `json:"speedup_vs_cold"`
	// HitRate is the plan-cache hit fraction measured during the run
	// (cached row only; 1.0 means every probe was skipped).
	HitRate float64 `json:"hit_rate,omitempty"`
}

// ColdStartBenchResult compares a cold start from a durable snapshot
// (kbtable.OpenDir: load graph + indexes, replay nothing) against
// rebuilding the same engine from scratch — the quantity the snapshot
// store exists to improve.
type ColdStartBenchResult struct {
	// SnapshotBytes is the on-disk snapshot size.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// IndexWireVersion is the wire format sniffed from the snapshot's
	// index files before recovery (the harness fails unless it is the
	// current index.WireVersion, so the timing below is guaranteed to
	// measure the binary v2 path, not a legacy gob load).
	IndexWireVersion int `json:"index_wire_version,omitempty"`
	// BuildMs is NewEngine (index construction) wall-clock time;
	// LoadMs is OpenDir (snapshot load) wall-clock time.
	BuildMs float64 `json:"build_ms"`
	LoadMs  float64 `json:"load_ms"`
	// SpeedupVsBuild is BuildMs / LoadMs.
	SpeedupVsBuild float64 `json:"speedup_vs_build"`
}

// ShardBenchReport is the BENCH_kbtable.json schema.
type ShardBenchReport struct {
	GoVersion  string             `json:"go_version"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Entities   int                `json:"entities"`
	Edges      int                `json:"edges"`
	Queries    int                `json:"queries"`
	K          int                `json:"k"`
	Results    []ShardBenchResult `json:"results"`
	// Planner is the PE vs LE vs Auto ablation per corpus.
	Planner []PlannerBenchResult `json:"planner"`
	// Streaming is the streaming-vs-staged executor ablation on wiki.
	Streaming []StreamingBenchResult `json:"streaming_executor,omitempty"`
	// PlanCache is the cold vs plan-cache vs prepared ablation on wiki.
	PlanCache []PlanCacheBenchResult `json:"plan_cache,omitempty"`
	// ColdStart is the snapshot-load vs index-rebuild comparison.
	ColdStart *ColdStartBenchResult `json:"cold_start,omitempty"`
	// Footprint is the per-corpus index footprint: resident bytes/entry
	// and the v2-vs-gob snapshot size and load-time comparison.
	Footprint []IndexFootprintResult `json:"index_footprint,omitempty"`
	// ServeLatency / GroupCommit come from a kbload soak report
	// (kbbench -load-report): the serving path's latency record.
	ServeLatency []ServeLatencyResult `json:"serve_latency,omitempty"`
	GroupCommit  *GroupCommitResult   `json:"group_commit,omitempty"`
}

// RunShardBench measures query throughput of the serial engine against
// scatter-gather engines at each shard width, on one SynthWiki corpus and
// a fixed keyword workload. One benchmark op = the full workload, so ns/op
// compares end-to-end query cost; allocations come from testing.Benchmark.
func RunShardBench(cfg ShardBenchConfig) (*ShardBenchReport, error) {
	c := cfg.withDefaults()
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: c.Entities, Types: c.Types, Seed: c.Seed})
	queries := dataset.Workload(g, dataset.WorkloadConfig{PerM: (c.Queries + 2) / 3, MaxM: 3, Seed: c.Seed})
	qs := make([]string, 0, c.Queries)
	for _, q := range queries {
		if len(qs) == c.Queries {
			break
		}
		qs = append(qs, q.Text)
	}
	report := &ShardBenchReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Entities:   g.NumNodes(),
		Edges:      g.NumEdges(),
		Queries:    len(qs),
		K:          c.K,
	}

	opts := search.Options{K: c.K, SkipTrees: true}

	// Serial reference: one index, Workers=1.
	ix, err := index.Build(g, index.Options{D: 3, Workers: 0})
	if err != nil {
		return nil, err
	}
	serialOpts := opts
	serialOpts.Workers = 1
	serial := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				search.PETopK(ix, q, serialOpts)
			}
		}
	})
	report.Results = append(report.Results, ShardBenchResult{
		Name:            "serial",
		NsPerOp:         serial.NsPerOp(),
		BytesPerOp:      serial.AllocedBytesPerOp(),
		AllocsPerOp:     serial.AllocsPerOp(),
		SpeedupVsSerial: 1,
	})

	for _, n := range c.Shards {
		eng, err := shard.NewEngine(g, n, index.Options{D: 3})
		if err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if _, err := eng.Search(context.Background(), search.AlgoPE, q, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		report.Results = append(report.Results, ShardBenchResult{
			Name:            fmt.Sprintf("shards-%d", n),
			Shards:          n,
			NsPerOp:         r.NsPerOp(),
			BytesPerOp:      r.AllocedBytesPerOp(),
			AllocsPerOp:     r.AllocsPerOp(),
			SpeedupVsSerial: float64(serial.NsPerOp()) / float64(r.NsPerOp()),
		})
	}

	// Planner ablation: the same workload under explicit PE, explicit LE
	// and the Auto planner, on both corpora. The wiki corpus and index are
	// reused from the shard rows; IMDB gets its own workload.
	imdb := dataset.SynthIMDB(dataset.IMDBConfig{Movies: c.Movies, Seed: c.Seed})
	imdbIx, err := index.Build(imdb, index.Options{D: 3, Workers: 0})
	if err != nil {
		return nil, err
	}
	imdbQueries := dataset.Workload(imdb, dataset.WorkloadConfig{PerM: (c.Queries + 2) / 3, MaxM: 3, Seed: c.Seed})
	iqs := make([]string, 0, c.Queries)
	for _, q := range imdbQueries {
		if len(iqs) == c.Queries {
			break
		}
		iqs = append(iqs, q.Text)
	}
	for _, corpus := range []struct {
		name    string
		ix      *index.Index
		queries []string
	}{{"wiki", ix, qs}, {"imdb", imdbIx, iqs}} {
		var peNs int64
		for _, algo := range []struct {
			name string
			a    search.Algo
		}{{"pe", search.AlgoPE}, {"le", search.AlgoLE}, {"auto", search.AlgoAuto}} {
			row := PlannerBenchResult{Corpus: corpus.name, Algo: algo.name}
			if algo.a == search.AlgoAuto {
				// One pass outside the timer records the planner's
				// decisions across the workload.
				for _, q := range corpus.queries {
					res, err := search.Execute(context.Background(), corpus.ix, q, algo.a, opts)
					if err != nil {
						return nil, err
					}
					if res.Plan.Algo == search.AlgoLE {
						row.ChoseLE++
					} else {
						row.ChosePE++
					}
				}
			}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range corpus.queries {
						if _, err := search.Execute(context.Background(), corpus.ix, q, algo.a, opts); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			row.NsPerOp = r.NsPerOp()
			row.AllocsPerOp = r.AllocsPerOp()
			if algo.name == "pe" {
				peNs = r.NsPerOp()
			}
			row.SpeedupVsPE = float64(peNs) / float64(r.NsPerOp())
			report.Planner = append(report.Planner, row)
		}
	}

	// Streaming-executor ablation: the same wiki workload, serial, under
	// the staged baseline (Options.Staged) and the streaming default, for
	// both enumeration algorithms. SkipTrees keeps the measurement on the
	// fused enumerate+aggregate path the streaming rewrite targets.
	for _, algo := range []struct {
		name string
		a    search.Algo
	}{{"pe", search.AlgoPE}, {"le", search.AlgoLE}} {
		var staged StreamingBenchResult
		for _, mode := range []string{"staged", "streaming"} {
			mOpts := serialOpts
			mOpts.Staged = mode == "staged"
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range qs {
						if _, err := search.Execute(context.Background(), ix, q, algo.a, mOpts); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			row := StreamingBenchResult{
				Algo:        algo.name,
				Mode:        mode,
				NsPerOp:     r.NsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if mode == "staged" {
				row.SpeedupVsStaged = 1
				staged = row
			} else {
				row.SpeedupVsStaged = float64(staged.NsPerOp) / float64(row.NsPerOp)
				if staged.AllocsPerOp > 0 {
					row.AllocReductionVsStaged = 1 - float64(row.AllocsPerOp)/float64(staged.AllocsPerOp)
				}
			}
			report.Streaming = append(report.Streaming, row)
		}
	}

	// Plan-cache / prepared-query ablation: the same wiki workload,
	// serial, under Auto, each query timed on its own and summarized by
	// the geometric mean (the suite's geo-time convention).
	rows, err := planCacheRows(ix, qs, serialOpts)
	if err != nil {
		return nil, err
	}
	report.PlanCache = append(report.PlanCache, rows...)

	// Index footprint: resident bytes/entry plus the v2-vs-gob snapshot
	// comparison, on both already-built corpora.
	for _, corpus := range []struct {
		name string
		g    *kg.Graph
		ix   *index.Index
	}{{"wiki", g, ix}, {"imdb", imdb, imdbIx}} {
		fp, err := IndexFootprint(corpus.name, corpus.g, corpus.ix)
		if err != nil {
			return nil, err
		}
		report.Footprint = append(report.Footprint, fp)
	}

	return report, nil
}

// planCacheRows measures every workload query under the three
// plan-resolution modes — cold (planner probe + execution), warm plan
// cache (probe skipped), retained prepare (only enumerate→aggregate→rank
// runs) — and folds each mode into one geometric-mean row.
func planCacheRows(ix *index.Index, qs []string, serialOpts search.Options) ([]PlanCacheBenchResult, error) {
	ctx := context.Background()
	words := make([][]string, len(qs))
	preps := make([]*search.Prepared, len(qs))
	pc := search.NewPlanCache(0)
	epoch := pc.Epoch()
	for i, q := range qs {
		words[i] = strings.Fields(q)
		st, err := search.PlanProbe(ctx, ix, q, serialOpts)
		if err != nil {
			return nil, err
		}
		pc.Put(search.PlanCacheKey(words[i]), epoch, st, words[i])
		p, err := search.PrepareQuery(ctx, ix, q, search.AlgoAuto, serialOpts)
		if err != nil {
			return nil, err
		}
		preps[i] = p
	}
	modes := []struct {
		name string
		op   func(b *testing.B, qi int)
	}{
		{"cold", func(b *testing.B, qi int) {
			st, err := search.PlanProbe(ctx, ix, qs[qi], serialOpts)
			if err != nil {
				b.Fatal(err)
			}
			plan := search.ChoosePlan(search.AlgoAuto, st, serialOpts)
			if _, err := search.Execute(ctx, ix, qs[qi], plan.Algo, serialOpts); err != nil {
				b.Fatal(err)
			}
		}},
		{"cached", func(b *testing.B, qi int) {
			st, ok := pc.Get(search.PlanCacheKey(words[qi]), epoch)
			if !ok {
				b.Fatal("plan cache miss on a warmed key")
			}
			plan := search.ChoosePlan(search.AlgoAuto, st, serialOpts)
			if _, err := search.Execute(ctx, ix, qs[qi], plan.Algo, serialOpts); err != nil {
				b.Fatal(err)
			}
		}},
		{"prepared", func(b *testing.B, qi int) {
			if _, err := search.ExecutePrepared(ctx, ix, preps[qi], preps[qi].Algo(), serialOpts); err != nil {
				b.Fatal(err)
			}
		}},
	}
	var out []PlanCacheBenchResult
	var coldNs int64
	for _, m := range modes {
		var logNs, logAllocs float64
		for qi := range qs {
			op := m.op
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op(b, qi)
				}
			})
			logNs += math.Log(float64(r.NsPerOp()))
			allocs := r.AllocsPerOp()
			if allocs < 1 {
				allocs = 1
			}
			logAllocs += math.Log(float64(allocs))
		}
		n := float64(len(qs))
		row := PlanCacheBenchResult{
			Mode:        m.name,
			NsPerOp:     int64(math.Exp(logNs / n)),
			AllocsPerOp: int64(math.Exp(logAllocs / n)),
		}
		if m.name == "cold" {
			coldNs = row.NsPerOp
			row.SpeedupVsCold = 1
		} else {
			row.SpeedupVsCold = float64(coldNs) / float64(row.NsPerOp)
		}
		if m.name == "cached" {
			cs := pc.Stats()
			if cs.Hits+cs.Misses > 0 {
				row.HitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// WikiGraph synthesizes the same wiki corpus RunShardBench measures, so
// cmd/kbbench can attach the cold-start row (which needs the kbtable
// facade — off limits here: the root package's in-package tests import
// this one) for the identical dataset.
func (c ShardBenchConfig) WikiGraph() *kg.Graph {
	cd := c.withDefaults()
	return dataset.SynthWiki(dataset.WikiConfig{Entities: cd.Entities, Types: cd.Types, Seed: cd.Seed})
}

// WriteJSON emits the report as indented JSON.
func (r *ShardBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the report as a human-readable table.
func (r *ShardBenchReport) String() string {
	t := Table{
		Title: fmt.Sprintf("Shard scaling — %d entities, %d queries, k=%d, GOMAXPROCS=%d",
			r.Entities, r.Queries, r.K, r.GoMaxProcs),
		Header: []string{"config", "ns/op", "B/op", "allocs/op", "speedup"},
	}
	for _, res := range r.Results {
		t.Rows = append(t.Rows, []string{
			res.Name,
			fmt.Sprintf("%d", res.NsPerOp),
			fmt.Sprintf("%d", res.BytesPerOp),
			fmt.Sprintf("%d", res.AllocsPerOp),
			fmt.Sprintf("%.2fx", res.SpeedupVsSerial),
		})
	}
	cold := ""
	if r.ColdStart != nil {
		cold = fmt.Sprintf("\ncold start: snapshot %.1f MB, build %.0fms vs load %.0fms (%.1fx)\n",
			float64(r.ColdStart.SnapshotBytes)/(1<<20), r.ColdStart.BuildMs, r.ColdStart.LoadMs, r.ColdStart.SpeedupVsBuild)
	}
	for _, fp := range r.Footprint {
		cold += fmt.Sprintf("footprint %s: %.1f B/entry resident, snapshot %.2f MB (%.0f%% under gob), "+
			"encode %.0fms, decode %.0fms (%.1fx vs gob, %.1fx vs build)\n",
			fp.Corpus, fp.BytesPerEntry, float64(fp.SnapshotBytes)/(1<<20), fp.ShrinkVsGob*100,
			fp.EncodeMs, fp.DecodeMs, fp.LoadSpeedupVsGob, fp.LoadSpeedupVsBuild)
	}
	for _, sl := range r.ServeLatency {
		cold += fmt.Sprintf("serve %s: %.0f rps, p50 %s, p99 %s, p99.9 %s\n",
			sl.Op, sl.ThroughputRPS, fmtMs(sl.P50MS), fmtMs(sl.P99MS), fmtMs(sl.P999MS))
	}
	if gc := r.GroupCommit; gc != nil {
		cold += fmt.Sprintf("group commit: %d records in %d fsyncs (avg %.2f, max %d) at %.0f updates/s\n",
			gc.Records, gc.Batches, gc.AvgBatch, gc.MaxBatch, gc.UpdateThroughputRPS)
	}
	if len(r.Planner) == 0 {
		return t.String() + cold
	}
	p := Table{
		Title:  "Planner ablation — PE vs LE vs Auto per corpus",
		Header: []string{"corpus", "algo", "ns/op", "allocs/op", "vs pe", "auto: pe/le"},
	}
	for _, res := range r.Planner {
		choice := ""
		if res.Algo == "auto" {
			choice = fmt.Sprintf("%d/%d", res.ChosePE, res.ChoseLE)
		}
		p.Rows = append(p.Rows, []string{
			res.Corpus,
			res.Algo,
			fmt.Sprintf("%d", res.NsPerOp),
			fmt.Sprintf("%d", res.AllocsPerOp),
			fmt.Sprintf("%.2fx", res.SpeedupVsPE),
			choice,
		})
	}
	out := t.String() + "\n" + p.String()
	if len(r.Streaming) > 0 {
		s := Table{
			Title:  "Streaming executor ablation — staged baseline vs streaming (wiki, serial)",
			Header: []string{"algo", "mode", "ns/op", "B/op", "allocs/op", "vs staged", "alloc cut"},
		}
		for _, res := range r.Streaming {
			s.Rows = append(s.Rows, []string{
				res.Algo,
				res.Mode,
				fmt.Sprintf("%d", res.NsPerOp),
				fmt.Sprintf("%d", res.BytesPerOp),
				fmt.Sprintf("%d", res.AllocsPerOp),
				fmt.Sprintf("%.2fx", res.SpeedupVsStaged),
				fmt.Sprintf("%.0f%%", res.AllocReductionVsStaged*100),
			})
		}
		out += "\n" + s.String()
	}
	if len(r.PlanCache) > 0 {
		pc := Table{
			Title:  "Plan cache / prepared queries — auto plan resolution on wiki, serial",
			Header: []string{"mode", "ns/op", "allocs/op", "vs cold", "hit rate"},
		}
		for _, res := range r.PlanCache {
			hit := ""
			if res.HitRate > 0 {
				hit = fmt.Sprintf("%.0f%%", res.HitRate*100)
			}
			pc.Rows = append(pc.Rows, []string{
				res.Mode,
				fmt.Sprintf("%d", res.NsPerOp),
				fmt.Sprintf("%d", res.AllocsPerOp),
				fmt.Sprintf("%.2fx", res.SpeedupVsCold),
				hit,
			})
		}
		out += "\n" + pc.String()
	}
	return out + cold
}
