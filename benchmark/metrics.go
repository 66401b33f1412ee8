package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the benchmark reports. The same lists are
// committed in BENCHMARK.json (TestBenchmarkJSONMatches keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them and none is ever 0, which is why update
// latency is not among them: three workloads send no update. Update cost
// still moves an end-to-end number, mixed_rw's search_qps, because that
// workload's closed-loop clients spend most of their time in updates.
var endToEnd = []metricDef{
	{"search_qps", "1/s", "higher", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"snapshot_bytes_per_kb_byte", "ratio", "lower", 0.02},
	{"resident_index_bytes_per_entry", "B", "lower", 0.02},
	{"heap_live_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. A layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{Name: "text.resolve_us", Unit: "us", Better: "lower"},

	{Name: "search.plan_probe_us", Unit: "us", Better: "lower"},
	{Name: "search.plan_cached_us", Unit: "us", Better: "lower"},
	{Name: "search.plancache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "search.prepare_mean_us", Unit: "us", Better: "lower"},
	{Name: "search.enumerate_mean_us", Unit: "us", Better: "lower"},
	{Name: "search.enumerate_p99_us", Unit: "us", Better: "lower"},
	{Name: "search.aggregate_mean_us", Unit: "us", Better: "lower"},
	{Name: "search.rank_mean_us", Unit: "us", Better: "lower"},
	{Name: "search.chose_pe_ratio", Unit: "ratio", Better: "higher"},
	{Name: "search.bound_pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "search.prepared_exec_mean_us", Unit: "us", Better: "lower"},

	{Name: "core.answer_json_us", Unit: "us", Better: "lower"},
	{Name: "core.rows_per_answer", Unit: "count", Better: "lower"},
	{Name: "core.compose_self_us", Unit: "us", Better: "lower"},

	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "rank.pagerank_s", Unit: "s", Better: "lower"},
	{Name: "index.entries", Unit: "count", Better: "lower"},
	{Name: "index.patterns", Unit: "count", Better: "lower"},
	{Name: "index.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "index.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "index.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "index.apply_delta_ms", Unit: "ms", Better: "lower"},

	{Name: "kg.delta_apply_us", Unit: "us", Better: "lower"},
	{Name: "kg.affected_roots_us", Unit: "us", Better: "lower"},
	{Name: "kg.dirty_roots_per_update", Unit: "count", Better: "lower"},
	{Name: "kg.scores_refreshed_ratio", Unit: "ratio", Better: "lower"},

	{Name: "shard.probe_us", Unit: "us", Better: "lower"},
	{Name: "shard.scatter_leg_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.leg_skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.sharded_vs_unsharded_ratio", Unit: "ratio", Better: "lower"},

	{Name: "store.wal_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "store.fsyncs_per_update", Unit: "ratio", Better: "lower"},
	{Name: "store.group_commit_avg_batch", Unit: "count", Better: "higher"},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_count", Unit: "count", Better: "lower"},
	{Name: "store.recover_s", Unit: "s", Better: "lower"},
	{Name: "store.snapshot_load_ms", Unit: "ms", Better: "lower"},
	{Name: "store.replay_ms_per_record", Unit: "ms", Better: "lower"},
	{Name: "store.bytes_written_per_update_byte", Unit: "ratio", Better: "lower"},

	{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_invalidated_per_update", Unit: "count", Better: "lower"},
	{Name: "serve.update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.update_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.updates_per_s", Unit: "1/s", Better: "higher"},

	{Name: "client.http_self_us", Unit: "us", Better: "lower"},
	{Name: "client.codec_self_us", Unit: "us", Better: "lower"},

	{Name: "cluster.leg_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.leg_scatter_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.partial_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.fallback_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.coordinator_self_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.alloc_bytes_per_search", Unit: "B", Better: "lower"},
	{Name: "runtime.allocs_per_search", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_sys_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.unaccounted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// tailPermilles are the candidates of the percentile rule, descending.
var tailPermilles = []int{999, 990, 950, 900, 750}

// tailPercentile returns the highest percentile that still has at least
// ten samples beyond it among n samples (50 when even p75 has not).
func tailPercentile(n int) float64 {
	for _, pm := range tailPermilles {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// cappedPercentile is the percentile a metric named after p may report
// from n samples: p itself when the rule supports it, else the highest
// percentile that it does.
func cappedPercentile(p float64, n int) float64 {
	if t := tailPercentile(n); t < p {
		return t
	}
	return p
}

// percentile is the nearest-rank percentile of sorted (ascending) values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
