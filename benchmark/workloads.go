package main

import "time"

// Request shape: every search is {"query": q} and takes the server's
// defaults (k 10, algorithm "auto", 50 rows per table, d 3).
const (
	searchK    = 10
	searchRows = 50
	indexD     = 3
	clients    = 2 // closed-loop clients, one keep-alive connection each
)

// workload is one traffic mix and the stack it runs against.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	shards  int
	rw      bool // durable store, searches beside updates
	cluster bool // coordinator plus one owner node per shard
	hot     bool // skewed draws over a hot set that fits the caches
	warm    bool // untimed pass over the query list before timing
	// maxFrontier, when set, keeps only queries with at most this many
	// valid subtrees: where the heaviest twentieth of the pool would be
	// most of the run's time (a cluster request for one of them takes
	// 0.2-0.6 s), a run of ten seconds samples too few of them to be steady.
	maxFrontier int64
}

var workloads = []workload{
	{
		Name: "search_cold",
		Why:  "cyclic passes over a pool larger than both caches: search, index, core and text do the work, the caches and shard gather none",
	},
	{
		Name: "search_hot", hot: true, warm: true,
		Why: "skewed draws over 400 queries that fit both caches, warmed: serve (routing, plan resolution, LRU, JSON) and client do the work, enumeration none",
	},
	{
		Name: "mixed_rw", shards: 2, rw: true, hot: true, maxFrontier: 30_000,
		Why: "85 % searches beside 15 % durable updates on two shards: the only workload where kg delta, index ApplyDelta, store WAL and checkpoint, and cache invalidation run",
	},
	{
		Name: "cluster_scatter", shards: 2, cluster: true, maxFrontier: 30_000,
		Why: "coordinator and two owner nodes over loopback: the only workload with cluster legs and JSON partials on the critical path; the slowest leg sets each request's time",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes the inputs. fullScale is what BENCHMARK.json's command runs;
// the tests run the same code at toyScale.
type scale struct {
	readEntities int // corpus of the read-only workloads
	rwEntities   int // corpus of mixed_rw: a structural update costs O(corpus)
	types        int

	candidatesPerM int   // candidate queries per keyword count
	quota          []int // pool size per frontier bucket
	hotSet         int   // queries of a hot workload
	clusterPool    int   // queries of cluster_scatter
	opsPerClient   int   // pre-drawn sequence length of hot and mixed workloads

	tailStructural int // WAL tail every set-up logs: structural updates...
	tailRetexts    int // ...then text-only updates
	setupRepeats   int // set-up phases per run; their median is setup_s

	checkpointEvery int // mixed_rw: WAL records between background checkpoints

	oracleSample   int // queries checked against the in-process oracle
	baselineSample int // of those, <=3-keyword queries also checked against Baseline
	finalSample    int // mixed_rw: queries compared with a from-scratch engine afterwards

	traceSearches int // searches of a traced pass
	traceUpdates  int // updates of a traced mixed_rw pass
	directQueries int // queries timed by direct calls into a layer
	directUpdates int // updates timed by direct calls into the write path
}

var fullScale = scale{
	readEntities: 6000, rwEntities: 4000, types: 60,
	candidatesPerM: 600,
	quota:          []int{200, 420, 450, 500, 160, 120, 50},
	hotSet:         400, clusterPool: 1000, opsPerClient: 20_000,
	tailStructural: 2, tailRetexts: 2, setupRepeats: 3,
	checkpointEvery: 16,
	oracleSample:    300, baselineSample: 20, finalSample: 50,
	traceSearches: 300, traceUpdates: 60, directQueries: 300, directUpdates: 16,
}

var toyScale = scale{
	readEntities: 300, rwEntities: 300, types: 12,
	candidatesPerM: 40,
	quota:          []int{8, 30, 30, 30, 10, 5, 2},
	hotSet:         20, clusterPool: 40, opsPerClient: 2000,
	tailStructural: 2, tailRetexts: 2, setupRepeats: 3,
	checkpointEvery: 4,
	oracleSample:    30, baselineSample: 5, finalSample: 10,
	traceSearches: 25, traceUpdates: 6, directQueries: 20, directUpdates: 4,
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload workload
	seed     int64
	measure  time.Duration // timed run length
	trace    bool          // traced per-layer run instead of the end-to-end run
	scale    scale
	tmp      string // scratch directory inside the checkout
	traceOut string // where to write the spans of a traced run ("" = nowhere)
}
