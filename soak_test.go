package kbtable

// The serving soak (the CI `load-soak` job): a real kbserve, then a real
// cluster, each take 30 s of concurrent load drawn from the graph they
// serve. It gates robustness, not speed (speed claims are made on
// benchmark/), and it execs kbserve processes, so it is opt-in:
//
//	KBTABLE_SOAK=1 go test -run TestServeSoak -v -timeout 15m .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kbtable/internal/dataset"
)

func TestServeSoak(t *testing.T) {
	if os.Getenv("KBTABLE_SOAK") == "" {
		t.Skip("set KBTABLE_SOAK=1 to run the serving soak (execs kbserve processes for 60 s of load)")
	}
	bin := buildKBServe(t)
	work := t.TempDir()
	// What kbgen -kind wiki -entities 4000 -types 60 -seed 1 writes.
	g := &Graph{g: dataset.SynthWiki(dataset.WikiConfig{Entities: 4000, Types: 60, Seed: 1})}
	kbPath := filepath.Join(work, "wiki.kb")
	if err := g.Save(kbPath); err != nil {
		t.Fatal(err)
	}
	t.Run("standalone", func(t *testing.T) {
		p := startKBServe(t, bin, "-kb", kbPath, "-shards", "2",
			"-data-dir", filepath.Join(work, "data"), "-group-commit-delay", "1ms")
		defer p.kill()
		soak(t, p.base, g, 16, 0.85, 30*time.Second, 0)
	})
	t.Run("cluster", func(t *testing.T) {
		coord, _ := startCluster(t, bin, kbPath, 2, nil, "n0 shards=0", "n1 shards=1", "r0 replica")
		soak(t, coord.base, g, 16, 1, 30*time.Second, 0)
	})
}

// soakMaxP99 is the ceiling on every op's p99: generous, since the soak
// gates robustness, not speed.
const soakMaxP99 = 5 * time.Second

// opTally is one op's client-side record of a soak.
type opTally struct {
	name       string
	lat        []time.Duration // completed requests, sorted before pct
	errs, shed int             // a 429 is shed (admission control doing its job), not an error
	nonEmpty   int             // searches answered with at least one table
}

// pct is the latency at quantile q (the nearest rank at or below it).
func (o *opTally) pct(q float64) time.Duration {
	if len(o.lat) == 0 {
		return 0
	}
	return o.lat[int(q*float64(len(o.lat)-1))]
}

// soakVerdict lists the gates a finished soak violates: an error share
// over maxErrRate, an op's p99 over soakMaxP99, no completed request, or
// no search that came back with an answer table.
func soakVerdict(search, update opTally, maxErrRate float64) []string {
	var fails []string
	reqs, errs := 0, 0
	for _, o := range []opTally{search, update} {
		reqs += len(o.lat) + o.errs
		errs += o.errs
		if p99 := o.pct(0.99); p99 > soakMaxP99 {
			fails = append(fails, fmt.Sprintf("%s p99 %v exceeds %v", o.name, p99, soakMaxP99))
		}
	}
	switch {
	case reqs == 0:
		fails = append(fails, "no requests completed")
	case float64(errs)/float64(reqs) > maxErrRate:
		fails = append(fails, fmt.Sprintf("error rate %d/%d exceeds %.4f", errs, reqs, maxErrRate))
	}
	if search.nonEmpty == 0 {
		fails = append(fails, "no search returned an answer table")
	}
	return fails
}

// soak drives base with workers concurrent clients for dur. A readRatio
// share of requests are top-5 searches, Zipf-skewed over 204 queries
// drawn from g, the graph the server was started on. The rest are
// updates that each insert a fresh entity, so they commute in any order.
// It logs one line per op and fails t on any soakVerdict gate.
func soak(t *testing.T, base string, g *Graph, workers int, readRatio float64, dur time.Duration, maxErrRate float64) {
	t.Helper()
	var texts []string
	for _, q := range dataset.Workload(g.g, dataset.WorkloadConfig{PerM: 34, MaxM: 6, Seed: 1}) {
		texts = append(texts, q.Text)
	}
	vocab := strings.Fields(strings.Join(texts, " "))
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer hc.CloseIdleConnections()
	search, update := opTally{name: "search"}, opTally{name: "update"}
	var mu sync.Mutex // guards search and update
	// post sends body to path and records the outcome in o; a reply that
	// does not decode is an error.
	post := func(o *opTally, path string, body any) {
		buf, _ := json.Marshal(body)
		t0 := time.Now()
		resp, err := hc.Post(base+path, "application/json", bytes.NewReader(buf))
		var reply struct {
			Answers []struct{} `json:"answers"` // absent from an update's reply
		}
		code := 0
		if err == nil {
			if code = resp.StatusCode; code == http.StatusOK && json.NewDecoder(resp.Body).Decode(&reply) != nil {
				code = 0
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		d := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		switch code {
		case http.StatusOK:
			o.lat = append(o.lat, d)
			if len(reply.Answers) > 0 {
				o.nonEmpty++
			}
		case http.StatusTooManyRequests:
			o.shed++
		default:
			o.errs++
		}
	}

	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1 + int64(w)*7919))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(texts)-1))
			word := func() string { return vocab[rng.Intn(len(vocab))] }
			for seq := 0; time.Now().Before(deadline); seq++ {
				if rng.Float64() < readRatio {
					post(&search, "/v1/search", map[string]any{"query": texts[zipf.Uint64()], "k": 5})
					continue
				}
				var u Update
				e := u.AddEntity("LoadEntity", fmt.Sprintf("%s %s w%d-%d", word(), word(), w, seq))
				u.AddTextAttr(e, "Note", word()+" "+word())
				u.AddTextAttr(e, "Origin", fmt.Sprintf("soak worker %d", w))
				post(&update, "/v1/update", map[string]any{"ops": u.Ops})
			}
		}(w)
	}
	wg.Wait()

	for _, o := range []*opTally{&search, &update} {
		sort.Slice(o.lat, func(i, j int) bool { return o.lat[i] < o.lat[j] })
		line := fmt.Sprintf("%s: %d requests, %d errors, %d shed, p50 %v, p99 %v", o.name, len(o.lat),
			o.errs, o.shed, o.pct(0.5).Round(10*time.Microsecond), o.pct(0.99).Round(10*time.Microsecond))
		if o == &search && len(o.lat) > 0 {
			line += fmt.Sprintf(", %.1f%% non-empty", 100*float64(o.nonEmpty)/float64(len(o.lat)))
		}
		t.Log(line)
	}
	for _, f := range soakVerdict(search, update, maxErrRate) {
		t.Errorf("soak gate: %s", f)
	}
}

// ramp returns the latencies 1..n ms.
func ramp(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

// TestSoakPercentiles pins the soak's nearest-rank percentile index.
func TestSoakPercentiles(t *testing.T) {
	o := opTally{lat: ramp(1000)}
	if p50, p99 := o.pct(0.5), o.pct(0.99); p50 != 500*time.Millisecond || p99 != 990*time.Millisecond {
		t.Fatalf("pct over 1..1000 ms: p50 %v, p99 %v; want 500ms, 990ms", p50, p99)
	}
}

// TestSoakVerdict pins the soak's gates.
func TestSoakVerdict(t *testing.T) {
	clean := opTally{name: "search", lat: ramp(1000), shed: 50, nonEmpty: 600}
	oneErr := opTally{name: "search", lat: ramp(99), errs: 1, nonEmpty: 99}
	slow := opTally{name: "update", lat: append(ramp(98), 6*time.Second, 7*time.Second)}
	for _, tc := range []struct {
		name           string
		search, update opTally
		maxErrRate     float64
		fails          int
	}{
		{"clean", clean, opTally{name: "update", lat: ramp(100)}, 0, 0},
		{"error rate violated", oneErr, opTally{}, 0, 1},
		{"error rate within budget", oneErr, opTally{}, 0.01, 0},
		{"p99 violated", clean, slow, 0, 1},
		{"no requests", opTally{}, opTally{}, 0, 2}, // and so no answer table
		{"shed is not an error", opTally{lat: ramp(1), shed: 995, nonEmpty: 1}, opTally{shed: 40}, 0, 0},
		{"no answer table", opTally{lat: ramp(1000)}, opTally{}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := soakVerdict(tc.search, tc.update, tc.maxErrRate); len(got) != tc.fails {
				t.Errorf("soakVerdict = %q, want %d failed gate(s)", got, tc.fails)
			}
		})
	}
}
