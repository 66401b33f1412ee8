package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kbtable/internal/api"
)

// GET /v1/metrics: Prometheus text exposition (version 0.0.4), hand-rolled
// so the server stays dependency-free. Latency is recorded in HDR-style
// fixed histograms — enough resolution that a scraper can recover
// p50/p99/p999 via the standard histogram_quantile estimate — and the
// WAL group-commit batch-size histogram is re-exposed from the store.

// latencyBounds are the histogram bucket upper bounds, in seconds:
// roughly exponential from 0.5ms to 10s, matching the engine's observed
// range from cache hits (~µs) to cold sharded queries.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numLatencyBuckets = len(latencyBounds) + 1 (the +Inf bucket).
const numLatencyBuckets = 15

// latencyHist is one concurrent-safe fixed-bucket latency histogram.
type latencyHist struct {
	counts [numLatencyBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNS  atomic.Uint64
}

// observe records one duration.
func (h *latencyHist) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBounds, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
}

// write emits the histogram in Prometheus text form under name with one
// fixed label pair (empty label omits it).
func (h *latencyHist) write(b *bytes.Buffer, name, label, value string) {
	sel := ""
	if label != "" {
		sel = fmt.Sprintf("%s=%q,", label, value)
	}
	var cum uint64
	for i, bound := range latencyBounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, sel, trimFloat(bound), cum)
	}
	cum += h.counts[len(latencyBounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sel, cum)
	tail := ""
	if label != "" {
		tail = fmt.Sprintf("{%s=%q}", label, value)
	}
	fmt.Fprintf(b, "%s_sum%s %g\n", name, tail, float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(b, "%s_count%s %d\n", name, tail, h.count.Load())
}

// trimFloat renders a bucket bound without trailing zeros (0.5, 1, 2.5).
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// statusKey identifies one (handler, status code) request counter.
type statusKey struct {
	handler string
	code    int
}

// metrics aggregates the server's Prometheus-visible counters.
type metrics struct {
	search    latencyHist
	update    latencyHist
	statuses  sync.Map // statusKey -> *atomic.Uint64
	coalesced atomic.Uint64
}

// countStatus bumps the (handler, status code) request counter.
func (m *metrics) countStatus(handler string, code int) {
	key := statusKey{handler, code}
	v, ok := m.statuses.Load(key)
	if !ok {
		v, _ = m.statuses.LoadOrStore(key, &atomic.Uint64{})
	}
	v.(*atomic.Uint64).Add(1)
}

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with latency + status-code accounting.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	var hist *latencyHist
	switch name {
	case "search":
		hist = &s.metrics.search
	case "update":
		hist = &s.metrics.update
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		if hist != nil {
			hist.observe(time.Since(t0))
		}
		s.metrics.countStatus(name, rec.code)
	})
}

// handleMetrics renders GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only")
		return
	}
	var b bytes.Buffer

	fmt.Fprintf(&b, "# HELP kbserve_requests_total Requests by handler and status code.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_requests_total counter\n")
	type statusRow struct {
		key statusKey
		n   uint64
	}
	var rows []statusRow
	s.metrics.statuses.Range(func(k, v any) bool {
		rows = append(rows, statusRow{k.(statusKey), v.(*atomic.Uint64).Load()})
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].key.handler != rows[j].key.handler {
			return rows[i].key.handler < rows[j].key.handler
		}
		return rows[i].key.code < rows[j].key.code
	})
	for _, row := range rows {
		fmt.Fprintf(&b, "kbserve_requests_total{handler=%q,code=\"%d\"} %d\n", row.key.handler, row.key.code, row.n)
	}

	fmt.Fprintf(&b, "# HELP kbserve_request_duration_seconds Request latency by operation.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_request_duration_seconds histogram\n")
	s.metrics.search.write(&b, "kbserve_request_duration_seconds", "op", "search")
	s.metrics.update.write(&b, "kbserve_request_duration_seconds", "op", "update")

	fmt.Fprintf(&b, "# HELP kbserve_searches_coalesced_total Searches that joined another identical in-flight execution.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_searches_coalesced_total counter\n")
	fmt.Fprintf(&b, "kbserve_searches_coalesced_total %d\n", s.metrics.coalesced.Load())

	if s.gate != nil {
		inFlight, queued := s.gate.depth()
		fmt.Fprintf(&b, "# HELP kbserve_admission_in_flight Searches currently executing.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_admission_in_flight gauge\n")
		fmt.Fprintf(&b, "kbserve_admission_in_flight %d\n", inFlight)
		fmt.Fprintf(&b, "# HELP kbserve_admission_queue_depth Searches waiting for an execution slot.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_admission_queue_depth gauge\n")
		fmt.Fprintf(&b, "kbserve_admission_queue_depth %d\n", queued)
		fmt.Fprintf(&b, "# HELP kbserve_admission_shed_total Requests rejected with 429, by reason.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_admission_shed_total counter\n")
		fmt.Fprintf(&b, "kbserve_admission_shed_total{reason=\"queue_full\"} %d\n", s.gate.shedFull.Load())
		fmt.Fprintf(&b, "kbserve_admission_shed_total{reason=\"queue_timeout\"} %d\n", s.gate.shedTimeout.Load())
	}

	cs := s.cache.Stats()
	fmt.Fprintf(&b, "# HELP kbserve_cache_hits_total Result-cache hits.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_cache_hits_total counter\n")
	fmt.Fprintf(&b, "kbserve_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(&b, "# HELP kbserve_cache_misses_total Result-cache misses.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_cache_misses_total counter\n")
	fmt.Fprintf(&b, "kbserve_cache_misses_total %d\n", cs.Misses)

	fmt.Fprintf(&b, "# HELP kbserve_bound_pruned_total Enumeration units cut by the executor's top-k bound pushdown, across executed searches.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_bound_pruned_total counter\n")
	fmt.Fprintf(&b, "kbserve_bound_pruned_total %d\n", s.boundPruned.Load())

	if pc := s.cur.Load().eng.PlanCacheStats(); pc.Capacity > 0 {
		fmt.Fprintf(&b, "# HELP kbserve_plan_cache_hits_total Plan-cache hits (planner probes skipped).\n")
		fmt.Fprintf(&b, "# TYPE kbserve_plan_cache_hits_total counter\n")
		fmt.Fprintf(&b, "kbserve_plan_cache_hits_total %d\n", pc.Hits)
		fmt.Fprintf(&b, "# HELP kbserve_plan_cache_misses_total Plan-cache misses (planner probes executed).\n")
		fmt.Fprintf(&b, "# TYPE kbserve_plan_cache_misses_total counter\n")
		fmt.Fprintf(&b, "kbserve_plan_cache_misses_total %d\n", pc.Misses)
		fmt.Fprintf(&b, "# HELP kbserve_plan_cache_invalidated_total Plan-cache entries evicted by updates.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_plan_cache_invalidated_total counter\n")
		fmt.Fprintf(&b, "kbserve_plan_cache_invalidated_total %d\n", pc.Invalidated)
		fmt.Fprintf(&b, "# HELP kbserve_plan_cache_size Plan-cache entries currently resident.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_plan_cache_size gauge\n")
		fmt.Fprintf(&b, "kbserve_plan_cache_size %d\n", pc.Size)
	}

	ps := s.prepared.Stats()
	fmt.Fprintf(&b, "# HELP kbserve_prepared_total Prepared-query events: handles created, executions served, handles expired by epoch swaps.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_prepared_total counter\n")
	fmt.Fprintf(&b, "kbserve_prepared_total{event=\"prepare\"} %d\n", s.prepares.Load())
	fmt.Fprintf(&b, "kbserve_prepared_total{event=\"search\"} %d\n", s.preparedSearches.Load())
	fmt.Fprintf(&b, "kbserve_prepared_total{event=\"expired\"} %d\n", ps.Invalidated)
	fmt.Fprintf(&b, "# HELP kbserve_prepared_live Prepared handles valid on the current epoch.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_prepared_live gauge\n")
	fmt.Fprintf(&b, "kbserve_prepared_live %d\n", ps.Size)

	fmt.Fprintf(&b, "# HELP kbserve_epoch Currently published KB epoch.\n")
	fmt.Fprintf(&b, "# TYPE kbserve_epoch gauge\n")
	fmt.Fprintf(&b, "kbserve_epoch %d\n", s.cur.Load().epoch)

	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		fmt.Fprintf(&b, "# HELP kbserve_wal_seq Last durable WAL sequence number.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_wal_seq gauge\n")
		fmt.Fprintf(&b, "kbserve_wal_seq %d\n", ss.LastSeq)
		fmt.Fprintf(&b, "# HELP kbserve_wal_group_commit_batches_total WAL fsync batches committed.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_wal_group_commit_batches_total counter\n")
		fmt.Fprintf(&b, "kbserve_wal_group_commit_batches_total %d\n", ss.GroupCommitBatches)
		fmt.Fprintf(&b, "# HELP kbserve_wal_group_commit_records_total WAL records covered by group commits.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_wal_group_commit_records_total counter\n")
		fmt.Fprintf(&b, "kbserve_wal_group_commit_records_total %d\n", ss.GroupCommitRecords)
		fmt.Fprintf(&b, "# HELP kbserve_wal_group_commit_batch_size Records per fsync batch.\n")
		fmt.Fprintf(&b, "# TYPE kbserve_wal_group_commit_batch_size histogram\n")
		var cum uint64
		bound := 1
		for i := 0; i < len(ss.GroupCommitHist)-1; i++ {
			cum += ss.GroupCommitHist[i]
			fmt.Fprintf(&b, "kbserve_wal_group_commit_batch_size_bucket{le=\"%d\"} %d\n", bound, cum)
			bound *= 2
		}
		cum += ss.GroupCommitHist[len(ss.GroupCommitHist)-1]
		fmt.Fprintf(&b, "kbserve_wal_group_commit_batch_size_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(&b, "kbserve_wal_group_commit_batch_size_sum %d\n", ss.GroupCommitRecords)
		fmt.Fprintf(&b, "kbserve_wal_group_commit_batch_size_count %d\n", ss.GroupCommitBatches)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}
