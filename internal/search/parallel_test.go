package search

import (
	"context"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/kg"
)

// synthCase is a reduced-scale synthetic dataset with its query workload.
type synthCase struct {
	name    string
	g       *kg.Graph
	queries []string
}

// synthCases builds the reduced-scale synthetic IMDB and Wiki datasets the
// paper evaluates on, with a workload spanning 1..4 keywords.
func synthCases(t *testing.T) []synthCase {
	t.Helper()
	cases := []synthCase{
		{name: "wiki", g: dataset.SynthWiki(dataset.WikiConfig{Entities: 1500, Types: 40})},
		{name: "imdb", g: dataset.SynthIMDB(dataset.IMDBConfig{Movies: 400})},
	}
	for i := range cases {
		for _, q := range dataset.Workload(cases[i].g, dataset.WorkloadConfig{PerM: 3, MaxM: 4}) {
			cases[i].queries = append(cases[i].queries, q.Text)
		}
	}
	return cases
}

// TestParallelCancellation verifies a canceled context aborts the query
// with the context's error instead of returning a partial result.
func TestParallelCancellation(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algo{AlgoPE, AlgoLE} {
		if res, err := Execute(ctx, ix, fig1Query, algo, Options{K: 10}); err == nil || res != nil {
			t.Errorf("%v on canceled ctx: res=%v err=%v, want nil result and error", algo, res, err)
		}
	}
	bl, err := NewBaseline(ix.Graph(), BaselineOptions{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := bl.SearchCtx(ctx, fig1Query, Options{K: 10}); err == nil || res != nil {
		t.Errorf("SearchCtx on canceled ctx: res=%v err=%v, want nil result and error", res, err)
	}
}

// TestPollCancel pins the in-shard cancellation probe: it observes a
// canceled context within one poll stride, stays canceled, and a nil
// poller (reference/test callers) never trips.
func TestPollCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pc := &pollCancel{ctx: ctx}
	for i := 0; i < 2000; i++ {
		if pc.hit() {
			t.Fatal("hit before cancellation")
		}
	}
	cancel()
	hit := false
	for i := 0; i < 1024 && !hit; i++ {
		hit = pc.hit()
	}
	if !hit {
		t.Fatal("pollCancel never observed the canceled context")
	}
	if !pc.hit() {
		t.Fatal("cancellation must be sticky")
	}
	var nilPC *pollCancel
	if nilPC.hit() {
		t.Fatal("nil poller must never hit")
	}
}

// TestResolveWorkers pins the Workers contract: non-positive means
// GOMAXPROCS, anything else passes through.
func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(1); got != 1 {
		t.Errorf("resolveWorkers(1) = %d", got)
	}
	if got := resolveWorkers(7); got != 7 {
		t.Errorf("resolveWorkers(7) = %d", got)
	}
	if got := resolveWorkers(0); got < 1 {
		t.Errorf("resolveWorkers(0) = %d, want >= 1", got)
	}
	if got := resolveWorkers(-3); got < 1 {
		t.Errorf("resolveWorkers(-3) = %d, want >= 1", got)
	}
}
