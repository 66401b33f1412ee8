package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := cappedPercentile(95, 60); got != 75 {
		t.Errorf("cappedPercentile(95, 60) = %g, want 75", got)
	}
	if got := cappedPercentile(95, 5000); got != 95 {
		t.Errorf("cappedPercentile(95, 5000) = %g, want 95", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "search_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "search_qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d                metricDef
		spread, old, new float64
		want             string
	}{
		{lower, 0.02, 1.0, 1.05, "ok"},
		{lower, 0.02, 1.0, 1.11, "worse"},
		{lower, 0.02, 1.0, 0.50, "ok"},
		{higher, 0.02, 100, 95, "ok"},
		{higher, 0.02, 100, 89, "worse"},
		{higher, 0.02, 100, 200, "ok"},
		{lower, 0.12, 1.0, 2.0, "unresolved"}, // the spread is wider than the bound
		{lower, 0.02, 0, 1.0, "unresolved"},
	} {
		if _, got := verdict(c.d, c.spread, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, spread %g, %g -> %g) = %s, want %s", c.d.Name, c.spread, c.old, c.new, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(qps float64, fp string) *report {
		o := &outcome{Workload: "search_cold", Fingerprints: map[string]string{"query_pool": fp}, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			o.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		o.Metrics["search_qps"] = metricValue{Value: qps, Unit: "1/s"}
		return &report{Outcomes: []*outcome{o}}
	}
	var buf bytes.Buffer
	worse, err := compareReports(mk(100, "a"), mk(50, "a"), nil, &buf)
	if err != nil || worse != 1 {
		t.Fatalf("halved throughput: worse %d, err %v\n%s", worse, err, buf.String())
	}
	if !strings.Contains(buf.String(), "0.500 of 100.0000") {
		t.Errorf("no ratio with its base in:\n%s", buf.String())
	}
	if worse, err := compareReports(mk(100, "a"), mk(101, "a"), nil, &buf); err != nil || worse != 0 {
		t.Errorf("equal reports: worse %d, err %v", worse, err)
	}
	if _, err := compareReports(mk(100, "a"), mk(100, "b"), nil, &buf); err == nil {
		t.Error("reports with different fingerprints compared")
	}
}

func TestRecordedSpreadCoversEveryMetric(t *testing.T) {
	spread, err := recordedSpread()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if _, ok := spread[w.Name][d.Name]; !ok {
				t.Errorf("spread.json has no %s/%s", w.Name, d.Name)
			}
		}
	}
}

var updateSpec = flag.Bool("update-spec", false, "rewrite ../BENCHMARK.json from the program's metric and workload lists")

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps the committed declaration and the
// program's own metric and workload lists equal.
func TestBenchmarkJSONMatches(t *testing.T) {
	if *updateSpec {
		data, err := json.MarshalIndent(benchmarkSpec{
			Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 12,
			Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

func TestSelfTimesTileTheRoot(t *testing.T) {
	// A cluster request: two concurrent legs under the engine call, the
	// second one slower.
	spans := []span{
		{ID: 0, Parent: -1, Name: "client.call", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "serve.handler", Start: 100, End: 900},
		{ID: 2, Parent: 1, Name: "engine.call", Start: 200, End: 800},
		{ID: 3, Parent: 2, Name: "cluster.leg.scatter", Start: 250, End: 500},
		{ID: 4, Parent: 2, Name: "cluster.leg.scatter", Start: 250, End: 700},
		{ID: 5, Parent: 4, Name: "node.handler.scatter", Start: 300, End: 650},
	}
	self := selfTimes(spans)
	want := []int64{200, 200, 150, 0, 100, 350}
	var sum int64
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 1000 {
		t.Errorf("self times add up to %d, the root lasts 1000", sum)
	}
}

func toyConfig(t *testing.T, w workload, trace bool) runConfig {
	return runConfig{workload: w, seed: 1, measure: 400 * time.Millisecond, trace: trace, scale: toyScale, tmp: t.TempDir() + "/run"}
}

func TestInputsFollowTheSeed(t *testing.T) {
	w, _ := workloadByName("mixed_rw")
	prints := func(seed int64) map[string]string {
		cfg := toyConfig(t, w, false)
		cfg.seed = seed
		out := &outcome{Fingerprints: map[string]string{}, Samples: map[string]int{}, Metrics: map[string]metricValue{}}
		p, err := prepare(context.Background(), cfg, out)
		if err != nil {
			t.Fatal(err)
		}
		for _, su := range p.setups {
			su.release()
		}
		return out.Fingerprints
	}
	a, b, c := prints(1), prints(1), prints(2)
	if len(a) != 2+clients {
		t.Fatalf("fingerprints: %v", a)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Errorf("%s differs between two runs with seed 1", k)
		}
		// The corpus is the same for every seed; everything drawn on it differs.
		if (a[k] == c[k]) != (k == "corpus_kb") {
			t.Errorf("%s: seed 1 %s, seed 2 %s", k, a[k], c[k])
		}
	}
}

// TestPoolFillsItsQuotas checks at full scale that the frontier filters
// leave the pool the workloads are sized for.
func TestPoolFillsItsQuotas(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full-scale engines")
	}
	for seed := int64(1); seed <= 2; seed++ {
		c, err := newCorpus(fullScale.readEntities, fullScale.types)
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.graph(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := oracle(g)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := buildPool(context.Background(), c, eng, fullScale.candidatesPerM, fullScale.quota, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(pool) < 1500 {
			t.Errorf("seed %d: the filters leave %d queries, want at least 1500", seed, len(pool))
		}
		empty := 0
		for _, q := range pool {
			if q.frontier == 0 {
				empty++
			}
			if q.frontier > frontierBuckets[len(frontierBuckets)-1] {
				t.Errorf("seed %d: %q with %d valid subtrees passed the cap", seed, q.text, q.frontier)
			}
		}
		if float64(empty) > 0.11*float64(len(pool)) {
			t.Errorf("seed %d: %d of %d queries have no answer, want at most a tenth", seed, empty, len(pool))
		}
	}
}

// TestWorkloadsAtToyScale runs every workload end to end and traced
// through the code paths of the full benchmark, oracle included.
func TestWorkloadsAtToyScale(t *testing.T) {
	writePath := []string{"kg.delta_apply_us", "index.apply_delta_ms", "store.wal_commit_ms", "store.checkpoint_ms", "serve.update_p50_ms"}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			out, err := runWorkload(context.Background(), toyConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("end-to-end run: attempted %d, failed %d: %v", out.Attempted, out.Failed, out.Failures)
			}
			for _, d := range endToEnd {
				if v, ok := out.Metrics[d.Name]; !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v", d.Name, v)
				}
			}
			if w.rw && (out.Samples["update"] == 0 || out.Samples["final_checks"] == 0) {
				t.Errorf("mixed_rw sent %d updates and made %d final checks", out.Samples["update"], out.Samples["final_checks"])
			}

			cfg := toyConfig(t, w, true)
			cfg.traceOut = t.TempDir() + "/trace.json"
			out, err = runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct {
				t.Fatalf("traced run: attempted %d, failed %d: %v", out.Attempted, out.Failed, out.Failures)
			}
			for _, d := range perLayer {
				if _, ok := out.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			for _, name := range writePath {
				if got := out.Metrics[name].Value > 0; got != w.rw {
					t.Errorf("%s = %g on %s", name, out.Metrics[name].Value, w.Name)
				}
			}
			if got := out.Metrics["cluster.leg_scatter_ms"].Value > 0; got != w.cluster {
				t.Errorf("cluster.leg_scatter_ms = %g on %s", out.Metrics["cluster.leg_scatter_ms"].Value, w.Name)
			}
			if w.cluster && out.Metrics["cluster.fallback_ratio"].Value != 0 {
				t.Errorf("legs fell back to the coordinator: ratio %g", out.Metrics["cluster.fallback_ratio"].Value)
			}
			if w.hot && !w.rw && out.Metrics["serve.cache_hit_ratio"].Value < 0.99 {
				t.Errorf("search_hot hit the cache on %g of its searches", out.Metrics["serve.cache_hit_ratio"].Value)
			}
			if w.Name == "search_cold" && out.Metrics["serve.cache_hit_ratio"].Value != 0 {
				t.Errorf("search_cold hit the cache on %g of its searches", out.Metrics["serve.cache_hit_ratio"].Value)
			}
			if u := out.Metrics["trace.unaccounted_ratio"].Value; u < 0 || u > 0.10 {
				t.Errorf("trace.unaccounted_ratio = %g, want within [0, 0.10]", u)
			}
			var total float64
			for _, s := range out.Shares {
				total += s.Share
			}
			if math.Abs(total-1) > 1e-9 {
				t.Errorf("self-time shares add up to %g", total)
			}
			checkSpans(t, cfg.traceOut)
		})
	}
}

// checkSpans verifies on a written trace that the spans of a request
// nest: a child lies within its parent and belongs to the same request.
func checkSpans(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("the traced run recorded no span")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 || s.Request == 0 {
			continue
		}
		p := spans[s.Parent]
		if p.Request != s.Request || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] of request %d does not nest in its parent %s [%d,%d] of request %d",
				s.ID, s.Name, s.Start, s.End, s.Request, p.Name, p.Start, p.End, p.Request)
		}
	}
}

// TestSelfTimesAddUp runs a traced pass and checks, request by request,
// that self times plus the unaccounted remainder are exactly the latency
// the client measured.
func TestSelfTimesAddUp(t *testing.T) {
	w, _ := workloadByName("cluster_scatter")
	cfg := toyConfig(t, w, true)
	out := &outcome{Fingerprints: map[string]string{}, Samples: map[string]int{}, Metrics: map[string]metricValue{}}
	p, err := prepare(context.Background(), cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, su := range p.setups {
			su.release()
		}
	}()
	ps, err := runPass(context.Background(), cfg, p, p.setups[1], newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.requests) != cfg.scale.traceSearches {
		t.Fatalf("%d traced requests, want %d", len(ps.requests), cfg.scale.traceSearches)
	}
	legs := 0
	for i, r := range ps.requests {
		var sum int64
		for j, s := range r.spans {
			sum += r.self[j]
			if strings.HasPrefix(s.Name, "cluster.leg") {
				legs++
			}
		}
		if sum+r.unaccounted() != int64(r.e2e) {
			t.Errorf("request %d: self %d + unaccounted %d != latency %d", i+1, sum, r.unaccounted(), r.e2e)
		}
		if r.unaccounted() < 0 {
			t.Errorf("request %d: its spans outlast the latency the client measured by %d ns", i+1, -r.unaccounted())
		}
	}
	if legs == 0 {
		t.Error("no cluster leg was traced")
	}
}
