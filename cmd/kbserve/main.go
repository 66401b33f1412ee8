// Command kbserve is the long-running HTTP daemon for keyword-table
// search: it loads (or demos) a knowledge base, builds the path-pattern
// indexes once, and serves queries with parallel execution and an LRU
// result cache until terminated. The knowledge base stays live: POST
// /v1/update applies mutations atomically, maintains the indexes
// incrementally (only the d-neighborhood of the change is re-enumerated),
// and swaps in the new snapshot without blocking in-flight searches.
//
// With -data-dir the knowledge base is durable: accepted updates are
// written to a write-ahead log (fsync) before they are published, the
// engine is checkpointed into a snapshot store in the background, and
// a restart recovers the exact pre-crash state — snapshot plus WAL
// replay — instead of rebuilding from scratch. The first run against an
// empty directory seeds it from -kb (or -demo); later runs recover from
// the directory and ignore -kb.
//
// Usage:
//
//	kbserve -kb wiki.kb -addr :8080          # serve a kbgen-built KB
//	kbserve -kb wiki.kb -shards 4            # partitioned indexes, scatter-gather
//	kbserve -kb wiki.kb -data-dir ./data     # durable: WAL + snapshots
//	kbserve -data-dir ./data                 # restart: recover, no -kb needed
//	kbserve -demo                            # built-in Figure 1 KB
//	kbserve -demo -readonly                  # disable POST /v1/update
//
// Cluster mode (-role) splits one logical server across processes over
// the same /v1 API. The coordinator holds the full engine and the WAL,
// scatters per-shard query legs to owner nodes, and ships committed WAL
// records to every follower; answers are bit-identical to standalone:
//
//	kbserve -kb wiki.kb -shards 4 -data-dir ./data \
//	        -role coordinator -node-id c0 -cluster members.txt
//	kbserve -kb wiki.kb -shards 4 -role node -node-id n0 \
//	        -shard-range 0-1 -source http://coord:8080
//	kbserve -kb wiki.kb -shards 4 -role replica -node-id r0 \
//	        -source http://coord:8080
//
// Endpoints (all under /v1; any other path answers the 404 envelope):
//
//	POST /v1/search  {"query":"database software company revenue","k":5,
//	                  "algorithm":"patternenum","d":3}
//	POST /v1/update  {"ops":[{"op":"add_entity","type":"Software",
//	                  "text":"Postgres"},
//	                  {"op":"add_attr","src":-1,"attr":"Genre","dst":1}]}
//	GET  /v1/healthz
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/cluster"
	"kbtable/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	kbPath := flag.String("kb", "", "knowledge base file written by kbgen")
	demo := flag.Bool("demo", false, "serve the built-in Figure 1 mini knowledge base")
	d := flag.Int("d", 3, "height threshold for tree patterns")
	shards := flag.Int("shards", 1, "number of index shards candidate roots are partitioned across (1 = one index, queried directly; more = scatter-gather queries, per-shard update routing)")
	workers := flag.Int("workers", 0, "per-query worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 512, "LRU query-result cache entries (negative disables)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request search timeout")
	maxK := flag.Int("max-k", 1000, "largest k a request may ask for")
	maxRows := flag.Int("max-rows", 50, "default cap on table rows per answer")
	readOnly := flag.Bool("readonly", false, "disable POST /v1/update (serve a frozen snapshot)")
	defaultAlgo := flag.String("default-algo", "patternenum", "algorithm for requests that omit one: patternenum, linearenum, or auto (cost-based planner)")
	dataDir := flag.String("data-dir", "", "durable data directory: WAL-log updates, checkpoint snapshots, recover on restart")
	ckptEvery := flag.Int("checkpoint-every", 64, "background-checkpoint after this many WAL records accumulate past the last snapshot (negative disables)")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission control: concurrently executing searches (0 = max(8, 4*GOMAXPROCS), negative disables)")
	maxQueue := flag.Int("max-queue", 512, "admission control: queued searches before new arrivals are shed with 429")
	queueTimeout := flag.Duration("queue-timeout", 0, "admission control: longest a search may wait for an execution slot (0 = -timeout)")
	gcBatch := flag.Int("group-commit-batch", 0, "WAL group commit: records per fsync batch (0 = default 128)")
	gcDelay := flag.Duration("group-commit-delay", 0, "WAL group commit: hold a non-full batch open this long for stragglers (0 = commit immediately)")
	role := flag.String("role", "standalone", "cluster role: standalone, coordinator (scatter legs to owners, ship WAL), node (host -shard-range, serve legs), or replica (full engine fed by WAL shipping)")
	nodeID := flag.String("node-id", "", "this process's member id in cluster mode")
	shardRange := flag.String("shard-range", "", "shards a node role hosts: lo-hi or a,b,c (requires -shards for the partition size)")
	clusterSpec := flag.String("cluster", "", "coordinator membership: a file path or an inline \"id addr shards=lo-hi; id addr replica\" list")
	source := flag.String("source", "", "follower roles: the coordinator's base URL to pull committed WAL records from")
	pullInterval := flag.Duration("pull-interval", 500*time.Millisecond, "follower WAL pull interval")
	flag.Parse()

	// With -data-dir, the snapshot manifest is authoritative for the
	// build-time options; only explicitly passed flags may contradict it
	// (and then fail loudly).
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var eng *kbtable.Engine
	var store *kbtable.Store
	var err error
	opts := kbtable.EngineOptions{D: *d, Workers: *workers, Shards: *shards}
	t0 := time.Now()

	switch *role {
	case "standalone", "coordinator", "node", "replica":
	default:
		log.Fatalf("-role %q: want standalone, coordinator, node, or replica", *role)
	}
	if *role != "standalone" && *nodeID == "" {
		log.Fatalf("-role %s requires -node-id", *role)
	}
	if *role == "coordinator" {
		if *clusterSpec == "" {
			log.Fatal("-role coordinator requires -cluster (the member table)")
		}
		if *dataDir == "" {
			log.Fatal("-role coordinator requires -data-dir (followers replay its WAL)")
		}
		// Followers bootstrap by replaying the WAL from sequence 0, so the
		// coordinator keeps its full history unless the operator explicitly
		// opted into checkpoint truncation.
		if !explicit["checkpoint-every"] {
			*ckptEvery = -1
		}
	}
	if *role == "node" || *role == "replica" {
		if *source == "" {
			log.Fatalf("-role %s requires -source (the coordinator's URL)", *role)
		}
		if *dataDir != "" {
			log.Fatal("-data-dir is for standalone/coordinator roles; followers replicate the coordinator's WAL instead")
		}
	}
	if *role == "node" {
		if *shardRange == "" {
			log.Fatal("-role node requires -shard-range")
		}
		opts.OwnedShards, err = cluster.ParseShardRange(*shardRange)
		if err != nil {
			log.Fatalf("-shard-range: %v", err)
		}
	}

	if *dataDir != "" {
		ropts := opts
		if !explicit["d"] {
			ropts.D = 0
		}
		if !explicit["shards"] {
			ropts.Shards = 0
		}
		var rs kbtable.RecoverStats
		eng, store, rs, err = kbtable.OpenDirOpts(*dataDir, ropts, kbtable.StoreOptions{
			GroupCommitMaxBatch: *gcBatch,
			GroupCommitMaxDelay: *gcDelay,
		})
		switch {
		case err == nil:
			if *kbPath != "" {
				log.Printf("data dir %s already holds a snapshot; ignoring -kb", *dataDir)
			}
			torn := ""
			if rs.TornTail {
				torn = " (torn WAL tail discarded)"
			}
			log.Printf("recovered %s: snapshot seq=%d + %d wal records -> seq=%d, %d shard(s), in %v%s",
				*dataDir, rs.SnapshotSeq, rs.Replayed, rs.Seq, rs.Shards,
				(rs.SnapshotLoad + rs.Replay).Round(time.Millisecond), torn)
		case errors.Is(err, kbtable.ErrNoSnapshot):
			// Fresh directory (the store comes back open): seed it from
			// -kb / -demo.
			g := mustGraph(*kbPath, *demo)
			if eng, err = kbtable.NewEngine(g, opts); err != nil {
				log.Fatal(err)
			}
			cs, err := eng.Checkpoint(store)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("seeded %s: snapshot of %d files, %.1f MB", *dataDir, cs.Files, float64(cs.Bytes)/(1<<20))
		default:
			log.Fatal(err)
		}
		defer store.Close()
	} else {
		if eng, err = kbtable.NewEngine(mustGraph(*kbPath, *demo), opts); err != nil {
			log.Fatal(err)
		}
	}
	{
		g := eng.Graph()
		log.Printf("graph: %d entities, %d attributes, %d types",
			g.NumEntities(), g.NumAttributes(), g.NumTypes())
	}
	st := eng.IndexStats()
	log.Printf("index: d=%d, %d patterns, %d entries, %.1f MB, ready in %v",
		st.D, st.Patterns, st.Entries, st.SizeMB, time.Since(t0).Round(time.Millisecond))
	info := eng.ShardInfo()
	log.Printf("shards: %d (roots per shard %v)", info.Count, info.Roots)

	if _, err := api.ParseAlgorithm(*defaultAlgo); err != nil {
		log.Fatalf("-default-algo: %v", err)
	}
	cfg := serve.Config{
		Engine:           eng,
		D:                st.D,
		CacheSize:        *cacheSize,
		Timeout:          *timeout,
		MaxK:             *maxK,
		MaxRows:          *maxRows,
		ReadOnly:         *readOnly || *role == "node" || *role == "replica",
		DefaultAlgorithm: *defaultAlgo,
		Store:            store,
		CheckpointEvery:  *ckptEvery,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		QueueTimeout:     *queueTimeout,
	}
	var srv *serve.Server
	switch *role {
	case "coordinator":
		members, err := loadMembers(*clusterSpec)
		if err != nil {
			log.Fatal(err)
		}
		router := cluster.NewRouter(*nodeID, members)
		router.SeqFn = func() uint64 { return store.Stats().LastSeq }
		cfg.Distributor = router
		cfg.Cluster = router.Health
		srv = serve.New(cfg)
		log.Printf("coordinator %s: %d members, scattering legs over /v1", *nodeID, len(members.Members))
	case "node", "replica":
		node := cluster.NewNode(cfg, *role, *nodeID)
		srv = node.Server()
		node.StartReplication(*source, *pullInterval)
		defer node.StopReplication()
		log.Printf("%s %s: replicating WAL from %s every %v", *role, *nodeID, *source, *pullInterval)
	default:
		srv = serve.New(cfg)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	mode := "live updates enabled (POST /v1/update)"
	if *readOnly {
		mode = "read-only"
	}
	if store != nil {
		mode += fmt.Sprintf(", durable in %s (checkpoint every %d records)", store.Dir(), *ckptEvery)
	}
	log.Printf("listening on %s (POST /v1/search, GET /v1/healthz, GET /v1/metrics), %s", *addr, mode)

	select {
	case err := <-errCh:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		log.Print("shutting down...")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if store != nil {
			// Final checkpoint so a clean restart replays no WAL. A
			// failure is not fatal: the WAL already holds everything.
			if err := srv.CheckpointNow(); err != nil {
				log.Printf("final checkpoint: %v", err)
			}
		}
		log.Print("drained")
	}
}

// loadMembers reads -cluster: a membership file when the path exists,
// otherwise an inline "id addr shards=lo-hi; id addr replica" list.
func loadMembers(spec string) (*cluster.Membership, error) {
	if _, err := os.Stat(spec); err == nil {
		return cluster.LoadMembership(spec)
	}
	return cluster.ParseMembership(spec)
}

// mustGraph loads the knowledge base from -kb or builds the demo.
func mustGraph(kbPath string, demo bool) *kbtable.Graph {
	switch {
	case kbPath != "":
		g, err := kbtable.LoadGraph(kbPath)
		if err != nil {
			log.Fatal(err)
		}
		return g
	case demo:
		g, err := demoGraph()
		if err != nil {
			log.Fatal(err)
		}
		return g
	}
	log.Fatal("provide -kb FILE (see cmd/kbgen), -demo, or a -data-dir holding a snapshot")
	return nil
}

// demoGraph builds the paper's Figure 1 mini knowledge base, so the
// daemon can be exercised without generating a dataset first.
func demoGraph() (*kbtable.Graph, error) {
	b := kbtable.NewBuilder()
	sqlServer := b.Entity("Software", "SQL Server")
	relDB := b.Entity("Model", "Relational database")
	microsoft := b.Entity("Company", "Microsoft")
	gates := b.Entity("Person", "Bill Gates")
	oracleDB := b.Entity("Software", "Oracle DB")
	orDB := b.Entity("Model", "O-R database")
	oracle := b.Entity("Company", "Oracle Corp")
	book := b.Entity("Book", "Handbook of Database Software")
	springer := b.Entity("Company", "Springer")
	b.Attr(sqlServer, "Genre", relDB)
	b.Attr(sqlServer, "Developer", microsoft)
	b.Attr(sqlServer, "Reference", book)
	b.TextAttr(microsoft, "Revenue", "US$ 77 billion")
	b.Attr(microsoft, "Founder", gates)
	b.Attr(oracleDB, "Genre", orDB)
	b.Attr(oracleDB, "Developer", oracle)
	b.TextAttr(oracle, "Revenue", "US$ 37 billion")
	b.Attr(book, "Publisher", springer)
	b.TextAttr(springer, "Revenue", "US$ 1 billion")
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("demo graph: %w", err)
	}
	return g, nil
}
