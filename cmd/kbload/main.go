// Command kbload drives a live kbserve with a mixed search/update
// workload and reports client-observed throughput and latency
// percentiles per op type, plus the server-side counter deltas
// (coalescing, load shedding, WAL group commit) scraped from /healthz
// around the run. It is a plain load generator: it prints its table,
// optionally writes the same numbers as JSON (-out), and gates with its
// exit code. The repo's benchmark — the numbers a performance claim is
// made on — is benchmark/ (see benchmark/README.md), not this tool.
//
// Queries are regenerated from the same synthetic corpus parameters the
// server's KB was built with (kbgen -kind wiki -entities N -types T
// -seed S), so they hit real vocabulary; selection is Zipf-skewed so
// popular queries repeat, exercising the cache and request coalescing.
// Updates insert fresh entities (with text attributes reusing workload
// vocabulary, so cache invalidation triggers) and are order-independent,
// making any interleaving across workers valid.
//
// Usage:
//
//	kbload -addr http://127.0.0.1:8080 -duration 30s -concurrency 16 \
//	       -read-ratio 0.9 -entities 4000 -types 60 -seed 1 \
//	       -out kbload-report.json -max-error-rate 0 -max-p99 5s
//
// The process exits 1 when -max-error-rate or -max-p99 is violated, so
// CI can gate on it directly. 429 responses count as shed, not errors:
// load shedding under overload is the server doing its job.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
	"kbtable/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbload: ")
	addr := flag.String("addr", "http://127.0.0.1:8080", "kbserve base URL")
	duration := flag.Duration("duration", 30*time.Second, "soak length")
	concurrency := flag.Int("concurrency", 16, "concurrent workers")
	readRatio := flag.Float64("read-ratio", 0.9, "fraction of requests that are searches (rest are updates)")
	entities := flag.Int("entities", 4000, "wiki corpus size the server was built with (kbgen -entities)")
	types := flag.Int("types", 60, "wiki corpus types (kbgen -types)")
	seed := flag.Int64("seed", 1, "corpus seed (kbgen -seed); also drives workload randomness")
	queries := flag.Int("queries", 200, "distinct query texts to rotate through")
	zipfS := flag.Float64("zipf-s", 1.2, "query-popularity skew (Zipf s; <=1 = uniform)")
	k := flag.Int("k", 5, "top-k per search")
	algo := flag.String("algo", "", "search algorithm to request (empty = server default)")
	priority := flag.String("priority", "", "X-KB-Priority header for searches (high, normal, low)")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	out := flag.String("out", "", "write the JSON report here (empty = stdout table only)")
	maxErrRate := flag.Float64("max-error-rate", -1, "exit 1 when errors/requests exceeds this (negative disables)")
	maxP99 := flag.Duration("max-p99", 0, "exit 1 when any op's p99 exceeds this (0 disables)")
	flag.Parse()
	if *concurrency < 1 {
		log.Fatal("-concurrency must be >= 1")
	}
	if *readRatio < 0 || *readRatio > 1 {
		log.Fatal("-read-ratio must be in [0,1]")
	}

	texts := buildQueries(*entities, *types, *seed, *queries)
	vocab := harvestVocab(texts)
	log.Printf("workload: %d query texts, %d vocabulary words", len(texts), len(vocab))

	cl := client.New(*addr, client.Config{HTTPClient: &http.Client{Timeout: *reqTimeout}})
	before, err := scrapeHealth(cl)
	if err != nil {
		log.Fatalf("target not healthy: %v", err)
	}

	start := time.Now()
	deadline := start.Add(*duration)
	results := make([]workerStats, *concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runWorker(workerConfig{
				client: cl, deadline: deadline,
				texts: texts, vocab: vocab,
				rng:       rand.New(rand.NewSource(*seed + int64(w)*7919)),
				readRatio: *readRatio, zipfS: *zipfS, k: *k,
				algo: *algo, priority: *priority, worker: w,
			})
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	after, err := scrapeHealth(cl)
	if err != nil {
		log.Printf("post-soak /healthz scrape failed: %v", err)
	}

	report := buildReport(*addr, wall, *concurrency, *readRatio, results, before, after)
	fmt.Print(report.String())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}

	if code := gate(report, *maxErrRate, *maxP99); code != 0 {
		os.Exit(code)
	}
}

// buildQueries regenerates the server's corpus in-process and harvests a
// query workload from it. The corpus is only used for query text — it is
// never sent to the server — so the cost is a few hundred ms.
func buildQueries(entities, types int, seed int64, n int) []string {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: entities, Types: types, Seed: seed})
	perM := n/6 + 1
	qs := dataset.Workload(g, dataset.WorkloadConfig{PerM: perM, MaxM: 6, Seed: seed})
	texts := make([]string, 0, n)
	for _, q := range qs {
		if len(texts) == n {
			break
		}
		texts = append(texts, q.Text)
	}
	if len(texts) == 0 {
		log.Fatal("workload generation produced no queries")
	}
	return texts
}

// harvestVocab collects the distinct words of the query texts; update
// batches reuse them so invalidation actually intersects cached queries.
func harvestVocab(texts []string) []string {
	seen := map[string]bool{}
	var words []string
	for _, t := range texts {
		for _, w := range strings.Fields(t) {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	return words
}

// workerStats is one worker's private tally, merged after the soak so
// the hot loop takes no locks.
type workerStats struct {
	searchLat, updateLat          []time.Duration
	searchErrs, updateErrs        uint64
	searchShed, updateShed        uint64
	searchCoalesced, searchCached uint64
}

type workerConfig struct {
	client    *client.Client
	deadline  time.Time
	texts     []string
	vocab     []string
	rng       *rand.Rand
	readRatio float64
	zipfS     float64
	k         int
	algo      string
	priority  string
	worker    int
}

func runWorker(cfg workerConfig) workerStats {
	var st workerStats
	var zipf *rand.Zipf
	if cfg.zipfS > 1 {
		zipf = rand.NewZipf(cfg.rng, cfg.zipfS, 1, uint64(len(cfg.texts)-1))
	}
	pick := func() string {
		if zipf != nil {
			return cfg.texts[zipf.Uint64()]
		}
		return cfg.texts[cfg.rng.Intn(len(cfg.texts))]
	}
	seq := 0
	for time.Now().Before(cfg.deadline) {
		if cfg.rng.Float64() < cfg.readRatio {
			doSearch(cfg, &st, pick())
		} else {
			doUpdate(cfg, &st, seq)
			seq++
		}
	}
	return st
}

func doSearch(cfg workerConfig, st *workerStats, query string) {
	t0 := time.Now()
	sr, err := cfg.client.Search(context.Background(), &api.SearchRequest{
		Query: query, K: cfg.k, Algorithm: cfg.algo, Priority: cfg.priority,
	})
	switch {
	case err == nil:
		st.searchLat = append(st.searchLat, time.Since(t0))
		if sr.Coalesced {
			st.searchCoalesced++
		}
		if sr.Cached {
			st.searchCached++
		}
	case client.IsShed(err):
		// 429 is the server shedding load on purpose, not a failure.
		st.searchShed++
	default:
		st.searchErrs++
	}
}

// doUpdate inserts a fresh entity with two text attributes built from
// workload vocabulary. Each batch only references entities it creates
// (negative back-references), so concurrent batches commute and any
// admission order the server picks is valid.
func doUpdate(cfg workerConfig, st *workerStats, seq int) {
	var u kbtable.Update
	word := func() string { return cfg.vocab[cfg.rng.Intn(len(cfg.vocab))] }
	e := u.AddEntity("LoadEntity", fmt.Sprintf("%s %s w%d-%d", word(), word(), cfg.worker, seq))
	u.AddTextAttr(e, "Note", word()+" "+word())
	u.AddTextAttr(e, "Origin", fmt.Sprintf("kbload worker %d", cfg.worker))
	t0 := time.Now()
	_, err := cfg.client.Update(context.Background(), &api.UpdateRequest{Ops: u.Ops})
	switch {
	case err == nil:
		st.updateLat = append(st.updateLat, time.Since(t0))
	case client.IsShed(err):
		st.updateShed++
	default:
		st.updateErrs++
	}
}

func scrapeHealth(cl *client.Client) (*api.HealthResponse, error) {
	h, err := cl.Health(context.Background())
	if err != nil {
		return nil, fmt.Errorf("/healthz: %w", err)
	}
	return h, nil
}

func buildReport(addr string, wall time.Duration, concurrency int, readRatio float64,
	results []workerStats, before, after *api.HealthResponse) *loadReport {
	var merged workerStats
	for _, r := range results {
		merged.searchLat = append(merged.searchLat, r.searchLat...)
		merged.updateLat = append(merged.updateLat, r.updateLat...)
		merged.searchErrs += r.searchErrs
		merged.updateErrs += r.updateErrs
		merged.searchShed += r.searchShed
		merged.updateShed += r.updateShed
		merged.searchCoalesced += r.searchCoalesced
		merged.searchCached += r.searchCached
	}
	search := percentiles("search", merged.searchLat, wall, merged.searchErrs, merged.searchShed)
	search.Coalesced = merged.searchCoalesced
	search.CacheHits = merged.searchCached
	update := percentiles("update", merged.updateLat, wall, merged.updateErrs, merged.updateShed)

	report := &loadReport{
		Target:      addr,
		DurationSec: wall.Seconds(),
		Concurrency: concurrency,
		ReadRatio:   readRatio,
		Ops:         []opStats{search, update},
	}
	if before != nil && after != nil {
		sc := serverCounters{
			Coalesced:        after.Serving.Coalesced - before.Serving.Coalesced,
			ShedQueueFull:    after.Serving.ShedQueueFull - before.Serving.ShedQueueFull,
			ShedQueueTimeout: after.Serving.ShedQueueTimeout - before.Serving.ShedQueueTimeout,
			Epoch:            after.Epoch,
		}
		if bd, ad := before.Durability, after.Durability; bd != nil && ad != nil {
			sc.GroupCommitBatches = ad.GroupCommitBatches - bd.GroupCommitBatches
			sc.GroupCommitRecords = ad.GroupCommitRecords - bd.GroupCommitRecords
			sc.GroupCommitMaxBatch = ad.GroupCommitMaxBatch
			sc.WALSeq = ad.WALSeq
			if sc.GroupCommitBatches > 0 {
				sc.GroupCommitAvgBatch = float64(sc.GroupCommitRecords) / float64(sc.GroupCommitBatches)
			}
		}
		report.Server = &sc
	}
	return report
}

// gate applies the -max-error-rate / -max-p99 CI thresholds.
func gate(r *loadReport, maxErrRate float64, maxP99 time.Duration) int {
	code := 0
	var reqs, errs uint64
	for _, op := range r.Ops {
		reqs += op.Requests + op.Errors
		errs += op.Errors
		if maxP99 > 0 && op.Requests > 0 && op.P99MS > float64(maxP99.Milliseconds()) {
			log.Printf("GATE: %s p99 %.1fms exceeds -max-p99 %v", op.Op, op.P99MS, maxP99)
			code = 1
		}
	}
	if maxErrRate >= 0 && reqs > 0 {
		rate := float64(errs) / float64(reqs)
		if rate > maxErrRate {
			log.Printf("GATE: error rate %.4f (%d/%d) exceeds -max-error-rate %.4f", rate, errs, reqs, maxErrRate)
			code = 1
		}
	}
	if reqs == 0 {
		log.Print("GATE: no requests completed")
		code = 1
	}
	return code
}
