// Command kbsearch answers keyword queries with ranked table answers,
// one-shot or interactively (one query per line). It builds a local
// engine over a kbgen file, or with -server asks a running kbserve (or
// cluster coordinator) over the typed /v1 client; both modes print
// through the same printers, so -format and -explain hold in both.
//
//	kbgen -kind fig1 -o fig1.kb
//	kbsearch -kb fig1.kb -shards 2 "database software company revenue"
//	kbsearch -kb wiki.kb -algo auto -explain "city population"
//	kbsearch -server http://localhost:8080 -format csv "city population"
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

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
)

// searcher answers one query: the ranked answers, the plan they ran
// with, and a note on how long it took and where.
type searcher func(q string) ([]kbtable.Answer, *api.PlanOut, string)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbsearch: ")
	kbPath := flag.String("kb", "", "knowledge base file written by kbgen")
	d := flag.Int("d", 3, "height threshold for tree patterns (local engine)")
	k := flag.Int("k", 5, "number of table answers")
	algoName := flag.String("algo", "pe", "algorithm: pe (PATTERNENUM), le (LINEARENUM), auto (cost-based planner); the wire names patternenum and linearenum work too")
	explain := flag.Bool("explain", false, "print the resolved plan and per-stage timings for each query")
	rows := flag.Int("rows", 8, "max table rows to print per answer")
	shards := flag.Int("shards", 1, "number of index shards candidate roots are partitioned across (local engine; 1 = one index, queried directly; more = scatter-gather)")
	format := flag.String("format", "table", "output format: table, csv, json, md")
	lambda := flag.Int64("lambda", 0, "LETopK sampling threshold Λ (local engine; 0 = exact)")
	rho := flag.Float64("rho", 0.1, "LETopK sampling rate ρ (local engine)")
	server := flag.String("server", "", "query a running kbserve at this base URL over the /v1 API instead of building a local engine")
	flag.Parse()

	algo, err := api.ParseAlgorithm(*algoName)
	if err != nil {
		log.Fatalf("-algo: %v", err)
	}
	var search searcher
	switch {
	case *server != "":
		search = remote(*server, api.SearchRequest{K: *k, Algorithm: api.AlgorithmName(algo), MaxRows: *rows})
	case *kbPath != "":
		search = local(*kbPath, kbtable.EngineOptions{D: *d, Shards: *shards},
			kbtable.SearchOptions{K: *k, Algorithm: algo, Lambda: *lambda, Rho: *rho, MaxRowsPerTable: *rows})
	default:
		log.Fatal("provide -kb FILE (write one with kbgen) or -server URL")
	}

	run := func(q string) {
		answers, plan, note := search(q)
		fmt.Printf("\n%d answers %s\n", len(answers), note)
		if *explain && plan != nil {
			printPlan(plan)
		}
		for _, a := range answers {
			printAnswer(a, *format, *rows)
		}
	}
	if flag.NArg() > 0 {
		run(strings.Join(flag.Args(), " "))
		return
	}
	fmt.Println("enter keyword queries, one per line (ctrl-D to exit):")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if q := strings.TrimSpace(sc.Text()); q != "" {
			run(q)
		}
	}
}

// local loads the graph at path and builds an engine over it.
func local(path string, eo kbtable.EngineOptions, so kbtable.SearchOptions) searcher {
	g, err := kbtable.LoadGraph(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d entities, %d edges, %d types\n", g.NumEntities(), g.NumAttributes(), g.NumTypes())
	e, err := kbtable.NewEngine(g, eo)
	if err != nil {
		log.Fatal(err)
	}
	st := e.IndexStats()
	fmt.Printf("index: %d shard(s), %d entries, built in %.3fs\n", e.ShardInfo().Count, st.Entries, st.BuildSeconds)
	return func(q string) ([]kbtable.Answer, *api.PlanOut, string) {
		t0 := time.Now()
		answers, pi, err := e.SearchPlan(context.Background(), q, so)
		if err != nil {
			log.Fatal(err)
		}
		return answers, api.PlanOf(pi), fmt.Sprintf("in %.3fms", float64(time.Since(t0).Microseconds())/1000)
	}
}

// remote sends each query to the server at base with req's options.
func remote(base string, req api.SearchRequest) searcher {
	cl := client.New(base)
	return func(q string) ([]kbtable.Answer, *api.PlanOut, string) {
		req.Query = q
		resp, err := cl.Search(context.Background(), &req)
		if err != nil {
			log.Fatal(err)
		}
		answers := make([]kbtable.Answer, len(resp.Answers))
		for i, a := range resp.Answers {
			answers[i] = kbtable.Answer(a)
		}
		note := fmt.Sprintf("in %.3fms, epoch %d", resp.ElapsedMS, resp.Epoch)
		if resp.Cached {
			note += " (cached)"
		}
		return answers, resp.Plan, note
	}
}

// printPlan writes the resolved plan, its prepare statistics and the
// per-stage timings.
func printPlan(p *api.PlanOut) {
	fmt.Printf("plan: algorithm=%s auto=%t\n", p.Algorithm, p.Auto)
	if p.Reason != "" {
		fmt.Printf("      %s\n", p.Reason)
	}
	fmt.Printf("      candidate_roots=%d root_types=%d pattern_space=%d frontier=%d bound_pruned=%d\n",
		p.CandidateRoots, p.RootTypes, p.PatternSpace, p.Frontier, p.BoundPruned)
	fmt.Printf("stages: prepare=%.3fms enumerate=%.3fms aggregate=%.3fms rank=%.3fms\n",
		p.PrepareMS, p.EnumerateMS, p.AggregateMS, p.RankMS)
}

// printAnswer writes one answer: its rank, score, row count and pattern,
// then its table in the given format with at most rows rows.
func printAnswer(a kbtable.Answer, format string, rows int) {
	head := fmt.Sprintf("\n#%d score=%.4f rows=%d\n%s\n", a.Rank, a.Score, a.NumRows, a.Pattern)
	switch format {
	case "table":
		fmt.Print("\n", a.Render(rows)) // Render writes the same head
	case "csv":
		fmt.Print(head, a.CSV())
	case "json":
		fmt.Print(head, a.JSON())
	case "md":
		fmt.Print(head, a.Markdown(rows))
	default:
		log.Fatalf("unknown -format %q (want table, csv, json or md)", format)
	}
}
