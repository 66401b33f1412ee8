package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
)

// pass is one serial pass of the traced run: one client, a fixed number
// of operations from client 0's sequence.
type pass struct {
	samples  []sample
	wall     time.Duration
	mem      [2]runtime.MemStats
	health   [2]*api.HealthResponse
	requests []request // traced pass only
	tr       *tracer
}

// passLength is how many of ops a traced pass replays: the configured
// number of searches, and on mixed_rw as many operations as it takes to
// send the configured number of updates.
func passLength(cfg runConfig, ops []op) int {
	if !cfg.workload.rw {
		return cfg.scale.traceSearches
	}
	updates := 0
	for i, o := range ops {
		if o.kind != opSearch {
			if updates++; updates == cfg.scale.traceUpdates {
				return i + 1
			}
		}
	}
	return len(ops)
}

func runPass(ctx context.Context, cfg runConfig, p *prepared, su *setUp, tr *tracer) (*pass, error) {
	st, err := startStack(cfg, su, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if cfg.workload.warm {
		if err := warm(ctx, p, st.url); err != nil {
			return nil, err
		}
	}
	ps := &pass{}
	if ps.health[0], err = st.health(ctx); err != nil {
		return nil, err
	}
	c := newClients(p, st.url, 1, cfg.workload.rw, tr)[0]
	runtime.GC()
	runtime.ReadMemStats(&ps.mem[0])
	// A pass is bounded by its operation count; the deadline only keeps a
	// broken server from hanging the run.
	ps.wall = runClients(ctx, []*loadClient{c}, 2*time.Minute, passLength(cfg, c.ops))
	runtime.ReadMemStats(&ps.mem[1])
	if ps.health[1], err = st.health(ctx); err != nil {
		return nil, err
	}
	ps.samples = c.samples
	if cfg.workload.rw {
		// Wait for a background checkpoint before the store closes.
		if err := st.srv.CheckpointNow(); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		ps.requests, ps.tr = tr.requests(), tr
	}
	return ps, st.close()
}

// tracedRun measures the per-layer metrics: an untraced serial pass (the
// reference for the tracing overhead, and the source of the counters),
// the same pass traced on a second set-up's stack, and direct timed calls
// into the layers no span reaches.
func tracedRun(ctx context.Context, cfg runConfig, p *prepared, out *outcome) error {
	for _, d := range perLayer {
		out.set(perLayer, d.Name, 0)
	}
	if len(p.setups) < 3 {
		return fmt.Errorf("a traced run needs 3 set-ups, has %d", len(p.setups))
	}
	plain, err := runPass(ctx, cfg, p, p.setups[0], nil)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	traced, err := runPass(ctx, cfg, p, p.setups[1], tr)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if cfg.traceOut != "" {
		if err := tr.writeFile(cfg.traceOut); err != nil {
			return err
		}
	}
	for _, ps := range []*pass{plain, traced} {
		for _, s := range ps.samples {
			out.Attempted++
			if s.bad != "" {
				out.fail("%s", s.bad)
			}
		}
	}
	counterMetrics(plain, out)
	spanMetrics(plain, traced, out)
	out.Shares = shares(traced.requests)
	if err := directReads(ctx, cfg, p, out); err != nil {
		return fmt.Errorf("direct read-path calls: %w", err)
	}
	if cfg.workload.shards > 1 {
		if err := directShards(ctx, cfg, p, out); err != nil {
			return fmt.Errorf("direct shard calls: %w", err)
		}
	}
	if cfg.workload.rw {
		if err := directWrites(cfg, p, traced, out); err != nil {
			return fmt.Errorf("direct write-path calls: %w", err)
		}
	}
	return nil
}

// counterMetrics derives the metrics that are deltas of the server's own
// counters and of the Go runtime's over the untraced pass.
func counterMetrics(ps *pass, out *outcome) {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	var search, update []float64
	dropped := 0
	for _, s := range ps.samples {
		if s.bad != "" {
			continue
		}
		if s.kind == opSearch {
			search = append(search, ms(s.latency))
		} else {
			update = append(update, ms(s.latency))
			dropped += s.dropped
		}
	}
	out.Samples["pass_searches"], out.Samples["pass_updates"] = len(search), len(update)
	ops := float64(len(search) + len(update))
	h0, h1 := ps.health[0], ps.health[1]

	hits := float64(h1.Cache.Hits - h0.Cache.Hits)
	set("serve.cache_hit_ratio", ratio(hits, hits+float64(h1.Cache.Misses-h0.Cache.Misses)))
	set("serve.coalesced_ratio", ratio(float64(h1.Serving.Coalesced-h0.Serving.Coalesced), float64(len(search))))
	shed := h1.Serving.ShedQueueFull + h1.Serving.ShedQueueTimeout - h0.Serving.ShedQueueFull - h0.Serving.ShedQueueTimeout
	set("serve.shed_ratio", ratio(float64(shed), float64(len(search))))
	if pc0, pc1 := h0.Planner.PlanCache, h1.Planner.PlanCache; pc0 != nil && pc1 != nil {
		ph := float64(pc1.Hits - pc0.Hits)
		set("search.plancache_hit_ratio", ratio(ph, ph+float64(pc1.Misses-pc0.Misses)))
	}
	if len(update) > 0 {
		sorted := sortedCopy(update)
		set("serve.update_p50_ms", percentile(sorted, 50))
		set("serve.update_p95_ms", percentile(sorted, cappedPercentile(95, len(sorted))))
		set("serve.updates_per_s", float64(len(update))/ps.wall.Seconds())
		set("serve.cache_invalidated_per_update", float64(dropped)/float64(len(update)))
	}
	if d0, d1 := h0.Durability, h1.Durability; d0 != nil && d1 != nil {
		batches := float64(d1.GroupCommitBatches - d0.GroupCommitBatches)
		records := float64(d1.GroupCommitRecords - d0.GroupCommitRecords)
		set("store.fsyncs_per_update", ratio(batches, records))
		set("store.group_commit_avg_batch", ratio(records, batches))
		set("store.checkpoint_count", float64(d1.Checkpoints-d0.Checkpoints))
	}
	if c := h1.Cluster; c != nil {
		var remote, fallback float64
		for _, n := range c.Nodes {
			remote += float64(n.Remote)
			fallback += float64(n.LocalFallback)
		}
		set("cluster.fallback_ratio", ratio(fallback, remote+fallback))
	}

	m0, m1 := ps.mem[0], ps.mem[1]
	set("runtime.alloc_bytes_per_search", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops))
	set("runtime.allocs_per_search", ratio(float64(m1.Mallocs-m0.Mallocs), ops))
	set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	set("runtime.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	set("runtime.heap_sys_mb", float64(m1.HeapSys)/(1<<20))
}

// spanMetrics derives the metrics that are durations or self times of
// spans of the traced pass.
func spanMetrics(plain, traced *pass, out *outcome) {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	dur, self, bytes := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var hitUS, skew, coordinator []float64
	var e2e, unaccounted float64
	for i, r := range traced.requests {
		root := r.root()
		if root == nil || i >= len(traced.samples) || traced.samples[i].bad != "" {
			continue
		}
		var legs []float64
		var coord float64
		for j, s := range r.spans {
			dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e3)
			self[s.Name] = append(self[s.Name], float64(r.self[j])/1e3)
			if s.Bytes > 0 {
				bytes[s.Name] = append(bytes[s.Name], float64(s.Bytes))
			}
			switch s.Name {
			case "cluster.leg.scatter":
				legs = append(legs, float64(s.End-s.Start))
			case "serve.handler", "engine.plan", "engine.call":
				coord += float64(r.self[j]) / 1e6
			}
			if s.Name == "serve.handler" && traced.samples[i].cached {
				hitUS = append(hitUS, float64(s.End-s.Start)/1e3)
			}
		}
		if root.Name != "client.call" {
			continue // an update
		}
		coordinator = append(coordinator, coord)
		if len(legs) > 1 {
			skew = append(skew, ratio(sortedCopy(legs)[len(legs)-1], mean(legs)))
		}
		e2e += float64(r.e2e)
		unaccounted += float64(r.unaccounted())
	}
	set("client.codec_self_us", mean(self["client.call"]))
	set("client.http_self_us", mean(self["client.roundtrip"]))
	set("serve.handler_self_us", mean(self["serve.handler"]))
	set("serve.cache_hit_us", mean(hitUS))
	set("serve.response_bytes", mean(bytes["serve.handler"]))
	set("core.compose_self_us", mean(self["engine.call"]))
	set("search.prepare_mean_us", mean(dur["search.prepare"]))
	set("search.enumerate_mean_us", mean(dur["search.enumerate"]))
	enum := sortedCopy(dur["search.enumerate"])
	set("search.enumerate_p99_us", percentile(enum, cappedPercentile(99, len(enum))))
	set("search.aggregate_mean_us", mean(dur["search.aggregate"]))
	set("search.rank_mean_us", mean(dur["search.rank"]))
	if n := float64(traced.tr.executions); n > 0 {
		set("search.chose_pe_ratio", float64(traced.tr.chosePE)/n)
		set("search.bound_pruned_per_query", float64(traced.tr.boundPruned)/n)
	}
	if len(dur["cluster.leg.scatter"]) > 0 {
		set("cluster.leg_probe_ms", mean(dur["cluster.leg.probe"])/1e3)
		set("cluster.leg_scatter_ms", mean(dur["cluster.leg.scatter"])/1e3)
		set("cluster.partial_bytes", mean(bytes["node.handler.scatter"]))
		set("cluster.coordinator_self_ms", mean(coordinator))
		set("shard.leg_skew", mean(skew))
		// What the coordinator's engine does beside waiting for its legs:
		// the gather and the answer composition.
		set("shard.gather_ms", mean(self["engine.call"])/1e3)
		set("core.compose_self_us", 0)
	}
	set("trace.unaccounted_ratio", ratio(unaccounted, e2e))

	p50 := func(ps *pass) float64 {
		var v []float64
		for _, s := range ps.samples {
			if s.kind == opSearch && s.bad == "" {
				v = append(v, ms(s.latency))
			}
		}
		return median(v)
	}
	set("trace.overhead_ratio", ratio(p50(traced), p50(plain)))
}

// meanSpanMS is the mean duration of the traced pass's spans called name.
func (ps *pass) meanSpanMS(name string) float64 {
	var v []float64
	for _, r := range ps.requests {
		for _, s := range r.spans {
			if s.Name == name {
				v = append(v, float64(s.End-s.Start)/1e6)
			}
		}
	}
	return mean(v)
}

// timeEach returns the mean duration of f over the queries, in us.
func timeEach(queries []string, f func(q string) error) (float64, error) {
	start := time.Now()
	for _, q := range queries {
		if err := f(q); err != nil {
			return 0, fmt.Errorf("%q: %w", q, err)
		}
	}
	return us(time.Since(start)) / float64(len(queries)), nil
}

func (p *prepared) direct(n int) []string {
	if n > len(p.queries) {
		n = len(p.queries)
	}
	return p.queries[:n]
}

// directReads times calls into the read-path layers on the third
// set-up's engine, whose plan cache nothing has touched yet.
func directReads(ctx context.Context, cfg runConfig, p *prepared, out *outcome) error {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	su := p.setups[2]
	eng, queries := su.eng, p.direct(cfg.scale.directQueries)

	v, _ := timeEach(queries, func(q string) error { eng.QueryWords(q); return nil })
	set("text.resolve_us", v)
	plan := func(q string) error { _, err := eng.Plan(ctx, q, searchOptions); return err }
	probe, err := timeEach(queries, plan) // every call misses the plan cache
	if err != nil {
		return err
	}
	cached, err := timeEach(queries, plan) // every call hits it
	if err != nil {
		return err
	}
	set("search.plan_probe_us", probe)
	set("search.plan_cached_us", cached)

	var execUS, jsonUS time.Duration
	answers, rows := 0, 0
	for _, q := range queries {
		pq, err := eng.PrepareContext(ctx, q, searchOptions)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", q, err)
		}
		t := time.Now()
		as, _, err := pq.Search(ctx)
		if err != nil {
			return fmt.Errorf("prepared %q: %w", q, err)
		}
		execUS += time.Since(t)
		t = time.Now()
		for _, a := range as {
			_ = a.JSON()
			rows += len(a.Rows)
		}
		jsonUS += time.Since(t)
		answers += len(as)
	}
	set("search.prepared_exec_mean_us", us(execUS)/float64(len(queries)))
	set("core.answer_json_us", ratio(us(jsonUS), float64(answers)))
	set("core.rows_per_answer", ratio(float64(rows), float64(answers)))

	var build, recover, load, replay []float64
	for _, s := range p.setups {
		build, recover = append(build, s.buildS), append(recover, s.recoverS)
		load = append(load, ms(s.rs.SnapshotLoad))
		replay = append(replay, ms(s.rs.Replay)/float64(len(s.tail)))
	}
	ixs := eng.IndexStats()
	set("index.build_s", median(build))
	set("store.recover_s", median(recover))
	set("index.entries", float64(ixs.Entries))
	set("index.patterns", float64(ixs.Patterns))
	set("index.resident_mb", ixs.SizeMB)
	set("store.snapshot_load_ms", median(load))
	set("store.replay_ms_per_record", median(replay))

	t := time.Now()
	rank.PageRank(su.corpus.g, rank.Options{})
	set("rank.pagerank_s", time.Since(t).Seconds())

	// The oracle is unsharded whatever the workload, so its index is one
	// file: encode and decode it.
	path := cfg.tmp + "/index.bin"
	t = time.Now()
	if err := p.oracle.SaveIndex(path); err != nil {
		return err
	}
	set("index.encode_ms", ms(time.Since(t)))
	t = time.Now()
	if _, err := kbtable.NewEngineFromIndex(p.oracle.Graph(), path, kbtable.EngineOptions{D: indexD}); err != nil {
		return err
	}
	set("index.decode_ms", ms(time.Since(t)))
	return nil
}

// directShards times one shard's probe and scatter legs in process and
// compares the sharded engine with an unsharded one on the same queries.
func directShards(ctx context.Context, cfg runConfig, p *prepared, out *outcome) error {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	eng, queries := p.setups[2].eng, p.direct(cfg.scale.directQueries)
	flat, err := kbtable.NewEngine(eng.Graph(), kbtable.EngineOptions{D: indexD, Shards: 1})
	if err != nil {
		return err
	}
	var probe, leg, gather, skew []float64
	var sharded, unsharded time.Duration
	for _, q := range queries {
		pi, err := eng.Plan(ctx, q, searchOptions)
		if err != nil {
			return err
		}
		o := searchOptions
		o.Algorithm = pi.Algorithm
		var legs []float64
		for si := 0; si < cfg.workload.shards; si++ {
			t := time.Now()
			if _, err := eng.ProbeShard(ctx, si, q, o); err != nil {
				return err
			}
			probe = append(probe, us(time.Since(t)))
			t = time.Now()
			if _, err := eng.ScatterShard(ctx, si, o.Algorithm, q, o); err != nil {
				return err
			}
			legs = append(legs, ms(time.Since(t)))
		}
		leg = append(leg, legs...)
		slowest := sortedCopy(legs)[len(legs)-1]
		skew = append(skew, ratio(slowest, mean(legs)))
		t := time.Now()
		if _, _, err := eng.SearchPlan(ctx, q, o); err != nil {
			return err
		}
		d := time.Since(t)
		sharded += d
		// The search minus its slowest leg: the gather and the composition.
		gather = append(gather, math.Max(0, ms(d)-slowest))
		t = time.Now()
		if _, _, err := flat.SearchPlan(ctx, q, o); err != nil {
			return err
		}
		unsharded += time.Since(t)
	}
	set("shard.probe_us", mean(probe))
	set("shard.scatter_leg_ms", mean(leg))
	set("shard.sharded_vs_unsharded_ratio", ratio(float64(sharded), float64(unsharded)))
	if !cfg.workload.cluster { // there the traced legs and gather are real
		set("shard.leg_skew", mean(skew))
		set("shard.gather_ms", mean(gather))
	}
	return nil
}

// directWrites times the write path layer by layer, outside the server:
// the graph delta and the affected-roots search on the graph alone, the
// index splice on an index alone, and the WAL commit and a checkpoint on
// the third set-up's store.
func directWrites(cfg runConfig, p *prepared, traced *pass, out *outcome) error {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	su := p.setups[2]
	var updates []kbtable.Update
	var added []int64
	next := int64(su.eng.Graph().NumEntities())
	for _, o := range p.ops[0] {
		if len(updates) == cfg.scale.directUpdates {
			break
		}
		if o.kind == opSearch {
			continue
		}
		updates = append(updates, o.update(added))
		if o.kind == opAdd {
			added = append(added, next)
			next += 3 // the entity and its two text-attribute literals
		}
	}

	// kg and index, on the corpus graph with the tail applied.
	g := su.corpus.g
	opts := index.Options{D: indexD}
	ix, err := index.Build(g, opts)
	if err != nil {
		return err
	}
	var deltaUS, rootsUS, spliceMS, dirty, refreshed []float64
	apply := func(u kbtable.Update) error {
		d := kg.NewDelta(g)
		var created []kg.NodeID
		t := time.Now()
		for _, o := range u.Ops {
			var err error
			switch o.Op {
			case "add_entity":
				var id kg.NodeID
				id, err = d.AddEntity(o.Type, o.Text)
				created = append(created, id)
			case "add_text_attr":
				_, err = d.AddTextAttr(created[-*o.Src-1], o.Attr, o.Text)
			case "add_attr":
				err = d.AddAttr(created[-*o.Src-1], o.Attr, kg.NodeID(*o.Dst))
			case "set_text":
				err = d.SetText(kg.NodeID(*o.Node), o.Text)
			}
			if err != nil {
				return err
			}
		}
		ch, err := d.Apply()
		if err != nil {
			return err
		}
		deltaUS = append(deltaUS, us(time.Since(t)))
		t = time.Now()
		roots := kg.AffectedRoots(ch, indexD-1)
		rootsUS = append(rootsUS, us(time.Since(t)))
		o := opts
		o.DirtyRoots = roots
		nix, ds, err := ix.ApplyDelta(ch, o)
		if err != nil {
			return err
		}
		spliceMS = append(spliceMS, ms(ds.Elapsed))
		dirty = append(dirty, float64(ds.DirtyRoots))
		if ds.ScoresRefreshed {
			refreshed = append(refreshed, 1)
		} else {
			refreshed = append(refreshed, 0)
		}
		g, ix = ch.New, nix
		return nil
	}
	for i, u := range append(append([]kbtable.Update(nil), su.tail...), updates...) {
		if err := apply(u); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	n := len(su.tail) // report the workload's updates, not the tail's
	set("kg.delta_apply_us", mean(deltaUS[n:]))
	set("kg.affected_roots_us", mean(rootsUS[n:]))
	set("index.apply_delta_ms", mean(spliceMS[n:]))
	set("kg.dirty_roots_per_update", mean(dirty[n:]))
	set("kg.scores_refreshed_ratio", mean(refreshed[n:]))

	// store, on the real engine and its open store.
	eng := su.eng
	wal0 := su.store.Stats().WALBytes
	var commitMS, durableMS []float64
	payload := 0
	for i, u := range updates {
		body, err := json.Marshal(u.Ops)
		if err != nil {
			return err
		}
		payload += len(body)
		t := time.Now()
		ne, _, commit, err := eng.ApplyLoggedAsync(su.store, u)
		if err != nil {
			return fmt.Errorf("durable update %d: %w", i, err)
		}
		t1 := time.Now()
		if _, err := commit.Wait(); err != nil {
			return err
		}
		commitMS = append(commitMS, ms(time.Since(t1)))
		durableMS = append(durableMS, ms(time.Since(t)))
		eng = ne
	}
	walBytes := float64(su.store.Stats().WALBytes-wal0) / float64(len(updates))
	cs, err := eng.Checkpoint(su.store)
	if err != nil {
		return err
	}
	set("store.wal_commit_ms", mean(commitMS))
	set("store.wal_bytes_per_update", walBytes)
	set("store.checkpoint_ms", ms(cs.Elapsed))
	// Per update: its WAL record, and its share of the snapshot rewritten
	// every checkpointEvery updates.
	written := walBytes + float64(cs.Bytes)/float64(cfg.scale.checkpointEvery)
	set("store.bytes_written_per_update_byte", ratio(written, float64(payload)/float64(len(updates))))
	// The server's update handler minus the durable apply it wraps: the
	// publish, the cache invalidation and the JSON.
	if publish := traced.meanSpanMS("serve.handler.update") - mean(durableMS); publish > 0 {
		set("serve.publish_ms", publish)
	}
	return nil
}
