// Command kbsearch answers keyword queries over a knowledge base with
// ranked table answers, interactively or one-shot.
//
// Usage:
//
//	kbsearch -kb wiki.kb -k 5 "washington city population"
//	kbsearch -kb imdb.kb            # interactive: one query per line
//	kbsearch -kb wiki.kb -shards 4  # four index shards, scatter-gather
//	kbsearch -kb wiki.kb -algo auto -explain "city population"
//	kbsearch -kind fig1 "database software company revenue"
//
// With -server it queries a running kbserve (or cluster coordinator)
// over the typed /v1 client instead of building a local engine:
//
//	kbsearch -server http://localhost:8080 "city population"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"kbtable/internal/api"
	"kbtable/internal/client"
	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
	"kbtable/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbsearch: ")
	kbPath := flag.String("kb", "", "knowledge base file written by kbgen")
	kind := flag.String("kind", "", "generate instead of loading: wiki, imdb, or fig1")
	d := flag.Int("d", 3, "height threshold for tree patterns")
	k := flag.Int("k", 5, "number of table answers")
	algo := flag.String("algo", "pe", "algorithm: pe (PATTERNENUM), le (LINEARENUM), baseline, auto (cost-based planner)")
	explain := flag.Bool("explain", false, "print the resolved plan and per-stage timings for each query")
	rows := flag.Int("rows", 8, "max table rows to print per answer")
	shards := flag.Int("shards", 1, "number of index shards candidate roots are partitioned across (1 = one index, queried directly; more = scatter-gather)")
	format := flag.String("format", "table", "output format: table, csv, json, md")
	lambda := flag.Int64("lambda", 0, "LETopK sampling threshold Λ (0 = exact)")
	rho := flag.Float64("rho", 0.1, "LETopK sampling rate ρ")
	repeat := flag.Int("repeat", 1, "re-execute each query this many times through a prepared handle (prepare once, run enumerate/aggregate/rank per iteration) and report cold vs prepared timings")
	server := flag.String("server", "", "query a running kbserve at this base URL over the /v1 API instead of building a local engine")
	flag.Parse()

	if *server != "" {
		runRemote(*server, *k, *algo, *rows, *explain)
		return
	}

	var g *kg.Graph
	var err error
	switch {
	case *kbPath != "":
		g, err = kg.LoadFile(*kbPath)
		if err != nil {
			log.Fatal(err)
		}
	case *kind == "wiki":
		g = dataset.SynthWiki(dataset.WikiConfig{})
	case *kind == "imdb":
		g = dataset.SynthIMDB(dataset.IMDBConfig{})
	case *kind == "fig1":
		g, _ = dataset.Fig1()
	default:
		log.Fatal("provide -kb FILE or -kind {wiki,imdb,fig1}")
	}
	s := g.Stats()
	fmt.Printf("graph: %d entities, %d edges, %d types\n", s.Nodes, s.Edges, s.Types)

	t0 := time.Now()
	se, err := shard.NewEngine(g, *shards, index.Options{D: *d})
	if err != nil {
		log.Fatal(err)
	}
	var entries int64
	for _, st := range se.Stats() {
		entries += st.Entries
	}
	fmt.Printf("index: %d shard(s), %d entries, built in %v\n", *shards, entries, time.Since(t0).Round(time.Millisecond))

	var salgo search.Algo
	switch *algo {
	case "pe":
		salgo = search.AlgoPE
	case "le":
		salgo = search.AlgoLE
	case "baseline":
		salgo = search.AlgoBaseline
	case "auto":
		salgo = search.AlgoAuto
	default:
		log.Fatalf("unknown -algo %q (want pe, le, baseline or auto)", *algo)
	}

	opts := search.Options{K: *k, Lambda: *lambda, Rho: *rho, MaxTreesPerPattern: *rows}

	// runPrepared re-executes q through a prepared handle: the prepare
	// stage (keyword resolution, posting lookups, planner probe) runs
	// once, each iteration runs only enumerate → aggregate → rank. The
	// report compares against the cold end-to-end elapsed time.
	runPrepared := func(q string, n int, cold time.Duration) {
		ctx := context.Background()
		p, err := se.Prepare(ctx, salgo, q, opts)
		if err != nil {
			log.Fatal(err)
		}
		var total, min time.Duration
		for i := 0; i < n; i++ {
			res, err := se.SearchPrepared(ctx, p, opts)
			if err != nil {
				log.Fatal(err)
			}
			d := res.Stats.Elapsed
			total += d
			if i == 0 || d < min {
				min = d
			}
		}
		avg := total / time.Duration(n)
		speedup := float64(cold) / float64(avg)
		fmt.Printf("prepared: %d executions, avg=%v min=%v (cold=%v, %.1fx)\n",
			n, avg.Round(time.Microsecond), min.Round(time.Microsecond),
			cold.Round(time.Microsecond), speedup)
	}

	run := func(q string) {
		res, err := se.Search(context.Background(), search.Plan{Algo: salgo}, q, opts, nil)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := res.Stats.Elapsed
		plan, stages := res.Plan, res.Stats.Stages
		fmt.Printf("\n%d pattern answers in %v\n", len(res.Patterns), elapsed.Round(time.Microsecond))
		if *explain {
			fmt.Printf("plan: algorithm=%s auto=%t\n", plan.Algo, plan.Auto)
			if plan.Reason != "" {
				fmt.Printf("      %s\n", plan.Reason)
			}
			fmt.Printf("      candidate_roots=%d root_types=%d pattern_space=%d frontier=%d\n",
				plan.Stats.CandidateRoots, plan.Stats.RootTypes, plan.Stats.PatternSpace, plan.Stats.Frontier)
			fmt.Printf("stages: prepare=%v enumerate=%v aggregate=%v rank=%v\n",
				stages.Prepare.Round(time.Microsecond), stages.Enumerate.Round(time.Microsecond),
				stages.Aggregate.Round(time.Microsecond), stages.Rank.Round(time.Microsecond))
		}
		if *repeat > 1 && salgo != search.AlgoBaseline {
			runPrepared(q, *repeat, elapsed)
		}
		for i, rp := range res.Patterns {
			// Pattern IDs resolve in rp.Table, which is per shard.
			tab := core.ComposeTable(g, rp.Table, rp.Pattern, rp.Trees)
			fmt.Printf("\n#%d  score=%.4f  rows=%d\n%s\n", i+1, rp.Score, rp.Agg.Count,
				rp.Pattern.Render(g, rp.Table, res.Stats.Surfaces))
			switch *format {
			case "table":
				fmt.Print(tab.Render(*rows))
			case "csv":
				if err := tab.WriteCSV(os.Stdout); err != nil {
					log.Fatal(err)
				}
			case "json":
				if err := tab.WriteJSON(os.Stdout); err != nil {
					log.Fatal(err)
				}
			case "md":
				fmt.Print(tab.Markdown(*rows))
			default:
				log.Fatalf("unknown -format %q", *format)
			}
		}
	}

	if flag.NArg() > 0 {
		run(strings.Join(flag.Args(), " "))
		return
	}
	fmt.Println("enter keyword queries, one per line (ctrl-D to exit):")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" {
			continue
		}
		run(q)
	}
}

// runRemote drives queries through the typed /v1 client against a
// running server, one-shot or interactively.
func runRemote(base string, k int, algo string, rows int, explain bool) {
	cl := client.New(base)
	wireAlgo := map[string]string{"pe": "patternenum", "le": "linearenum"}[algo]
	if wireAlgo == "" {
		wireAlgo = algo
	}
	run := func(q string) {
		resp, err := cl.Search(context.Background(), &api.SearchRequest{
			Query: q, K: k, Algorithm: wireAlgo, MaxRows: rows,
		})
		if err != nil {
			log.Fatal(err)
		}
		cached := ""
		if resp.Cached {
			cached = " (cached)"
		}
		fmt.Printf("\n%d answers in %.3fms, epoch %d, algorithm %s%s\n",
			len(resp.Answers), resp.ElapsedMS, resp.Epoch, resp.Algorithm, cached)
		if explain && resp.Plan != nil {
			p := resp.Plan
			fmt.Printf("plan: algorithm=%s auto=%t\n", p.Algorithm, p.Auto)
			if p.Reason != "" {
				fmt.Printf("      %s\n", p.Reason)
			}
			fmt.Printf("      candidate_roots=%d root_types=%d pattern_space=%d frontier=%d\n",
				p.CandidateRoots, p.RootTypes, p.PatternSpace, p.Frontier)
			fmt.Printf("stages: prepare=%.3fms enumerate=%.3fms aggregate=%.3fms rank=%.3fms\n",
				p.PrepareMS, p.EnumerateMS, p.AggregateMS, p.RankMS)
		}
		for _, a := range resp.Answers {
			fmt.Printf("\n#%d  score=%.4f  rows=%d\n%s\n", a.Rank, a.Score, a.NumRows, a.Pattern)
			fmt.Println(strings.Join(a.Columns, " | "))
			for _, row := range a.Rows {
				fmt.Println(strings.Join(row, " | "))
			}
		}
	}
	if flag.NArg() > 0 {
		run(strings.Join(flag.Args(), " "))
		return
	}
	fmt.Println("enter keyword queries, one per line (ctrl-D to exit):")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" {
			continue
		}
		run(q)
	}
}
