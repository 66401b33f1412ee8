package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
)

// outcome is what one run of one workload reports.
type outcome struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Traced       bool                   `json:"traced"`
	Fingerprints map[string]string      `json:"fingerprints"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"` // the first few
	Samples      map[string]int         `json:"samples"`
	Metrics      map[string]metricValue `json:"metrics"`
	Shares       []share                `json:"shares,omitempty"`
	Notes        []string               `json:"notes,omitempty"`
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 10 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			o.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// prepared is everything a run needs before it sends its first request.
type prepared struct {
	setups  []*setUp // [0] serves; a traced run keeps [1] and [2] too
	queries []string // the workload's query list
	want    []uint64 // oracle digests of the first queries (nil on mixed_rw)
	ops     [][]op   // per client
	oracle  *kbtable.Engine
}

func prepare(ctx context.Context, cfg runConfig, out *outcome) (*prepared, error) {
	w, sc := cfg.workload, cfg.scale
	p := &prepared{}
	for i := 0; i < sc.setupRepeats; i++ {
		su, err := runSetUp(cfg, fmt.Sprintf("%s/setup-%d", cfg.tmp, i))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		p.setups = append(p.setups, su)
		if i > 0 && !cfg.trace {
			su.release()
		}
	}
	su := p.setups[0]
	out.Fingerprints["corpus_kb"] = su.corpus.sha

	var err error
	if p.oracle, err = oracle(su.eng.Graph()); err != nil {
		return nil, err
	}
	planned, err := buildPool(ctx, su.corpus, p.oracle, sc.candidatesPerM, sc.quota, cfg.seed+1)
	if err != nil {
		return nil, err
	}
	var pool []string
	for _, q := range planned {
		if w.maxFrontier == 0 || q.frontier <= w.maxFrontier {
			pool = append(pool, q.text)
		}
	}
	out.Fingerprints["query_pool"] = poolFingerprint(pool)
	out.Samples["pool_queries"] = len(pool)
	p.queries = pool
	switch {
	case w.hot && len(pool) > sc.hotSet:
		p.queries = pool[:sc.hotSet]
	case w.cluster && len(pool) > sc.clusterPool:
		p.queries = pool[:sc.clusterPool]
	}
	if len(p.queries) < 2 {
		return nil, fmt.Errorf("query pool has %d queries", len(p.queries))
	}

	if !w.rw {
		if p.want, err = oracleDigests(ctx, p.oracle, p.queries, sc.oracleSample); err != nil {
			return nil, err
		}
		checkBaseline(ctx, p, sc.baselineSample, out)
	}

	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(cfg.seed*1000 + 3 + int64(c)))
		var ops []op
		switch {
		case w.rw:
			ops = mixedOps(rng, su.corpus, sc.opsPerClient, len(p.queries))
		case w.hot:
			ops = hotOps(rng, sc.opsPerClient, len(p.queries))
		default:
			// Clients walk the same cycle half a cycle apart, which is
			// further than either cache holds.
			ops = cyclicOps(len(p.queries), len(p.queries), c*len(p.queries)/clients)
		}
		p.ops = append(p.ops, ops)
		out.Fingerprints[fmt.Sprintf("ops_client_%d", c)] = opsFingerprint(ops)
	}
	return p, nil
}

// checkBaseline cross-checks the oracle itself: on queries of at most
// three keywords its answers must equal the Baseline algorithm's, which
// shares no index with the other executors.
func checkBaseline(ctx context.Context, p *prepared, n int, out *outcome) {
	for i, q := range p.queries[:len(p.want)] {
		if n == 0 {
			return
		}
		if len(strings.Fields(q)) > 3 {
			continue
		}
		n--
		o := searchOptions
		o.Algorithm = kbtable.Baseline
		answers, err := p.oracle.SearchContext(ctx, q, o)
		if err != nil {
			out.fail("baseline %q: %v", q, err)
		} else if digestAnswers(answers) != p.want[i] {
			out.fail("baseline %q: answer differs from the oracle's", q)
		}
		out.Samples["baseline_checks"]++
	}
}

// newClients builds the closed-loop clients of one pass.
func newClients(p *prepared, url string, n int, rw bool, tr *tracer) []*loadClient {
	first := &firstSeen{d: map[int32]uint64{}}
	cs := make([]*loadClient, n)
	for i := range cs {
		cs[i] = &loadClient{
			cl:      client.New(url, client.Config{HTTPClient: newHTTPClient(tr)}),
			queries: p.queries, ops: p.ops[i], want: p.want, tr: tr,
		}
		if !rw {
			cs[i].first = first
		}
	}
	return cs
}

// warm sends every query once, untimed, so that both caches hold the hot
// set before timing starts.
func warm(ctx context.Context, p *prepared, url string) error {
	cl := client.New(url, client.Config{HTTPClient: newHTTPClient(nil)})
	for _, q := range p.queries {
		if _, err := cl.Search(ctx, &api.SearchRequest{Query: q}); err != nil {
			return fmt.Errorf("warm %q: %w", q, err)
		}
	}
	return nil
}

// collect folds the clients' samples into the outcome and returns the
// search and update latencies in ms.
func collect(cs []*loadClient, out *outcome) (search, update []float64) {
	for _, c := range cs {
		for _, s := range c.samples {
			out.Attempted++
			if s.bad != "" {
				out.fail("%s", s.bad)
				continue
			}
			if s.kind == opSearch {
				search = append(search, ms(s.latency))
				if s.cached {
					out.Samples["search_cached"]++
				}
			} else {
				update = append(update, ms(s.latency))
			}
		}
	}
	return search, update
}

// runWorkload runs one workload once: the end-to-end run, or with
// cfg.trace the traced per-layer run.
func runWorkload(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{
		Workload: cfg.workload.Name, Seed: cfg.seed, Traced: cfg.trace,
		Fingerprints: map[string]string{}, Samples: map[string]int{}, Metrics: map[string]metricValue{},
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmp)
	p, err := prepare(ctx, cfg, out)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, su := range p.setups {
			su.release()
		}
	}()
	if cfg.trace {
		err = tracedRun(ctx, cfg, p, out)
	} else {
		err = endToEndRun(ctx, cfg, p, out)
	}
	if err != nil {
		return nil, err
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out, nil
}

func endToEndRun(ctx context.Context, cfg runConfig, p *prepared, out *outcome) error {
	w := cfg.workload
	su := p.setups[0]
	var totals []float64
	for _, s := range p.setups {
		totals = append(totals, s.totalS)
	}
	ixs := su.eng.IndexStats()
	// The oracle has done its work; only the serving stack should be live
	// when the heap is measured.
	p.oracle = nil

	st, err := startStack(cfg, su, nil)
	if err != nil {
		return err
	}
	defer st.close()
	su.built = nil // the nodes have started from it; only the serving stack stays live
	if w.warm {
		if err := warm(ctx, p, st.url); err != nil {
			return err
		}
	}
	cs := newClients(p, st.url, clients, w.rw, nil)
	runtime.GC()
	wall := runClients(ctx, cs, cfg.measure, math.MaxInt)
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)

	search, update := collect(cs, out)
	out.Samples["search"], out.Samples["update"] = len(search), len(update)
	if len(search) == 0 {
		return fmt.Errorf("no search completed in %v", cfg.measure)
	}
	if len(update) > 0 {
		u := sortedCopy(update)
		out.Notes = append(out.Notes, fmt.Sprintf("updates (no end-to-end metric, see serve.update_* of the traced run): %d, p50 %.2f ms, p95 %.2f ms, %.1f/s",
			len(u), percentile(u, 50), percentile(u, 95), float64(len(u))/wall.Seconds()))
	}
	sorted := sortedCopy(search)
	if tailPercentile(len(sorted)) < 95 {
		out.Notes = append(out.Notes, fmt.Sprintf("search_p95_ms has fewer than ten of its %d samples beyond it", len(sorted)))
	}
	out.set(endToEnd, "search_qps", float64(len(search))/wall.Seconds())
	out.set(endToEnd, "search_p50_ms", percentile(sorted, 50))
	out.set(endToEnd, "search_p95_ms", percentile(sorted, 95))
	out.set(endToEnd, "setup_s", median(totals))
	out.set(endToEnd, "snapshot_bytes_per_kb_byte", ratio(float64(su.snapshotBytes), float64(su.kbBytes)))
	out.set(endToEnd, "resident_index_bytes_per_entry", ixs.BytesPerEntry)
	out.set(endToEnd, "heap_live_mb", float64(m.HeapInuse)/(1<<20))

	if w.rw {
		return checkDurable(ctx, cfg, p, st, cs, out)
	}
	return nil
}

// checkDurable verifies mixed_rw after its run: the served answers equal
// a from-scratch engine's over the final graph, and after a graceful
// shutdown (final checkpoint, as kbserve takes on SIGTERM) and a reopen,
// every acknowledged update is there.
func checkDurable(ctx context.Context, cfg runConfig, p *prepared, st *stack, cs []*loadClient, out *outcome) error {
	su := p.setups[0]
	acked := uint64(len(su.tail))
	for _, c := range cs {
		for _, s := range c.samples {
			if s.kind != opSearch && s.bad == "" {
				acked++
			}
		}
	}
	cur, _ := st.srv.CurrentEngine()
	eng, ok := cur.(*kbtable.Engine)
	if !ok {
		return fmt.Errorf("served engine is %T", cur)
	}
	if eng.Seq() != acked {
		out.fail("served engine is at seq %d, %d updates were acknowledged", eng.Seq(), acked)
	}
	fresh, err := oracle(eng.Graph())
	if err != nil {
		return err
	}
	n := cfg.scale.finalSample
	if n > len(p.queries) {
		n = len(p.queries)
	}
	want, err := oracleDigests(ctx, fresh, p.queries, n)
	if err != nil {
		return err
	}
	cl := client.New(st.url, client.Config{HTTPClient: newHTTPClient(nil)})
	for i, q := range p.queries[:n] {
		resp, err := cl.Search(ctx, &api.SearchRequest{Query: q})
		if err != nil {
			out.fail("final %q: %v", q, err)
		} else if digestWire(resp.Answers) != want[i] {
			out.fail("final %q: served answer differs from a from-scratch engine's", q)
		}
	}
	out.Samples["final_checks"] = n

	if err := st.srv.CheckpointNow(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	if err := st.close(); err != nil {
		return err
	}
	dir := su.dir
	su.release()
	reopened, store, _, err := kbtable.OpenDirOpts(dir, kbtable.EngineOptions{}, storeOptions)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", dir, err)
	}
	defer store.Close()
	if reopened.Seq() != acked {
		out.fail("reopened engine is at seq %d, %d updates were acknowledged", reopened.Seq(), acked)
	}
	got, err := oracleDigests(ctx, reopened, p.queries, n)
	if err != nil {
		return err
	}
	for i := range got {
		if got[i] != want[i] {
			out.fail("reopened %q: answer differs from a from-scratch engine's", p.queries[i])
		}
	}
	return nil
}
