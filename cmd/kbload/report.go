package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// loadReport is what kbload prints and, with -out, writes as JSON:
// throughput and latency percentiles per op type for one mixed
// search/update soak against a live kbserve, plus the server-side
// counter deltas (coalescing, shedding, WAL group commit) scraped from
// /healthz around the run.
type loadReport struct {
	// Target is the kbserve base URL the soak drove.
	Target string `json:"target"`
	// DurationSec / Concurrency / ReadRatio echo the soak parameters.
	DurationSec float64 `json:"duration_sec"`
	Concurrency int     `json:"concurrency"`
	ReadRatio   float64 `json:"read_ratio"`
	// Ops holds one row per op type ("search", "update").
	Ops []opStats `json:"ops"`
	// Server is the /healthz counter delta across the soak (nil when the
	// endpoint could not be scraped).
	Server *serverCounters `json:"server,omitempty"`
}

// opStats is the client-observed throughput + latency distribution of
// one op type.
type opStats struct {
	// Op is "search" or "update".
	Op string `json:"op"`
	// Requests counts completed requests; Errors the non-2xx responses
	// that were not load shedding; Shed the 429 rejections.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Shed     uint64 `json:"shed"`
	// Coalesced / CacheHits count search responses flagged as shared
	// with another execution / served from the result cache.
	Coalesced uint64 `json:"coalesced,omitempty"`
	CacheHits uint64 `json:"cache_hits,omitempty"`
	// ThroughputRPS is Requests / wall-clock seconds.
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency percentiles over completed requests, in milliseconds.
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// serverCounters is the server-side view of the same soak: the /healthz
// counter deltas between start and end.
type serverCounters struct {
	Coalesced        uint64 `json:"coalesced"`
	ShedQueueFull    uint64 `json:"shed_queue_full"`
	ShedQueueTimeout uint64 `json:"shed_queue_timeout"`
	// WAL group commit: fsync batches, records they covered, average and
	// largest batch (0 when the server runs without -data-dir).
	GroupCommitBatches  uint64  `json:"group_commit_batches"`
	GroupCommitRecords  uint64  `json:"group_commit_records"`
	GroupCommitAvgBatch float64 `json:"group_commit_avg_batch"`
	GroupCommitMaxBatch int     `json:"group_commit_max_batch"`
	// WALSeq / Epoch are the end-of-soak absolute values, a consistency
	// anchor: every acked update must be ≤ WALSeq.
	WALSeq uint64 `json:"wal_seq"`
	Epoch  uint64 `json:"epoch"`
}

// percentiles computes the latency distribution of one op from its raw
// samples (sorted in place).
func percentiles(op string, samples []time.Duration, wall time.Duration, errors, shed uint64) opStats {
	st := opStats{Op: op, Requests: uint64(len(samples)), Errors: errors, Shed: shed}
	if wall > 0 {
		st.ThroughputRPS = float64(len(samples)) / wall.Seconds()
	}
	if len(samples) == 0 {
		return st
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	st.P50MS = ms(pct(0.50))
	st.P90MS = ms(pct(0.90))
	st.P99MS = ms(pct(0.99))
	st.P999MS = ms(pct(0.999))
	st.MaxMS = ms(samples[len(samples)-1])
	st.MeanMS = ms(sum / time.Duration(len(samples)))
	return st
}

// WriteJSON emits the report as indented JSON.
func (r *loadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the report as a human-readable table.
func (r *loadReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Serve soak — %s, %.0fs, %d workers, read ratio %.2f ==\n",
		r.Target, r.DurationSec, r.Concurrency, r.ReadRatio)
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "op\trequests\terrors\tshed\trps\tp50_ms\tp99_ms\tp99.9_ms\tmax_ms")
	for _, op := range r.Ops {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.0f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			op.Op, op.Requests, op.Errors, op.Shed, op.ThroughputRPS,
			op.P50MS, op.P99MS, op.P999MS, op.MaxMS)
	}
	tw.Flush()
	if s := r.Server; s != nil {
		fmt.Fprintf(&sb, "note: server: %d coalesced, %d+%d shed (full+timeout)\n",
			s.Coalesced, s.ShedQueueFull, s.ShedQueueTimeout)
		if s.GroupCommitBatches > 0 {
			fmt.Fprintf(&sb, "note: group commit: %d records in %d fsyncs (avg %.2f, max %d)\n",
				s.GroupCommitRecords, s.GroupCommitBatches, s.GroupCommitAvgBatch, s.GroupCommitMaxBatch)
		}
	}
	return sb.String()
}
