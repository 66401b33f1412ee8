package kbtable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// The cluster facade's exactness contract: scattering per-shard legs to
// owner engines (through a JSON wire round-trip, as internal/cluster
// does over HTTP) and gathering the partials on a full coordinator
// engine reproduces SearchPlan's answers — the coordinator's own and a
// one-shard engine's — bit for bit, including when some legs fail and
// fall back to local execution.

// wireExec routes shard legs to partial owner engines through a JSON
// encode/decode of every wire value, like the HTTP transport does.
type wireExec struct {
	owners map[int]*Engine // shard -> owner engine
	failed map[int]bool    // shards whose owner is "down"
	calls  atomic.Int64    // legs run concurrently
}

func (x *wireExec) ownerFor(si int) (*Engine, error) {
	if x.failed[si] {
		return nil, errors.New("owner down")
	}
	e, ok := x.owners[si]
	if !ok {
		return nil, fmt.Errorf("no owner for shard %d", si)
	}
	return e, nil
}

func (x *wireExec) ProbeShard(ctx context.Context, si int, query string, opts SearchOptions) (ShardPlanStats, error) {
	x.calls.Add(1)
	e, err := x.ownerFor(si)
	if err != nil {
		return ShardPlanStats{}, err
	}
	st, err := e.ProbeShard(ctx, si, query, opts)
	if err != nil {
		return ShardPlanStats{}, err
	}
	var rt ShardPlanStats
	return rt, roundTrip(st, &rt)
}

func (x *wireExec) ScatterShard(ctx context.Context, si int, algorithm Algorithm, query string, opts SearchOptions) (*ShardPartial, error) {
	x.calls.Add(1)
	e, err := x.ownerFor(si)
	if err != nil {
		return nil, err
	}
	p, err := e.ScatterShard(ctx, si, algorithm, query, opts)
	if err != nil {
		return nil, err
	}
	var rt ShardPartial
	if err := roundTrip(p, &rt); err != nil {
		return nil, err
	}
	return &rt, nil
}

func roundTrip(in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

func TestSearchDistributedMatchesLocal(t *testing.T) {
	g := loadCorpus(t, "testdata/corpus/wiki.txt")
	one, err := NewEngine(g, EngineOptions{D: 3, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardWidths {
		coord, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// Two owners: all shards but the last, and the last.
		var head []int
		exec := &wireExec{owners: map[int]*Engine{}}
		for si := 0; si < shards-1; si++ {
			head = append(head, si)
		}
		ownerA, err := NewEngine(g, EngineOptions{D: 3, Shards: shards, OwnedShards: head})
		if err != nil {
			t.Fatal(err)
		}
		ownerB, err := NewEngine(g, EngineOptions{D: 3, Shards: shards, OwnedShards: []int{shards - 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, si := range head {
			exec.owners[si] = ownerA
		}
		exec.owners[shards-1] = ownerB

		queries := goldenCorpora()[0].queries
		for _, algo := range []Algorithm{PatternEnum, LinearEnum, Auto} {
			for _, q := range queries {
				opts := SearchOptions{K: goldenK, Algorithm: algo, MaxRowsPerTable: goldenRows}
				want, _, err := one.SearchPlan(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("%v %q one shard: %v", algo, q, err)
				}
				local, localPlan, err := coord.SearchPlan(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("%v %q shards=%d local: %v", algo, q, shards, err)
				}
				got, gotPlan, err := coord.SearchDistributed(context.Background(), exec, q, opts)
				if err != nil {
					t.Fatalf("%v %q shards=%d distributed: %v", algo, q, shards, err)
				}
				if lw, lg := renderGolden(q, want), renderGolden(q, got); lw != lg {
					t.Fatalf("%v %q shards=%d: distributed answers differ\none shard:\n%s\ndistributed:\n%s", algo, q, shards, lw, lg)
				}
				if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(want, local) {
					t.Fatalf("%v %q shards=%d: answer structs differ", algo, q, shards)
				}
				// The planner's merged statistics depend on the partition
				// (pattern space over-counts across shards), so the resolved
				// algorithm is compared at equal shard count only.
				if gotPlan.Algorithm != localPlan.Algorithm {
					t.Fatalf("%v %q shards=%d: resolved %v distributed vs %v local", algo, q, shards, gotPlan.Algorithm, localPlan.Algorithm)
				}
			}
		}
		if exec.calls.Load() == 0 {
			t.Fatal("executor never consulted")
		}
	}
}

func TestSearchDistributedFallback(t *testing.T) {
	const shards = 3
	g := loadCorpus(t, "testdata/corpus/imdb.txt")
	coord, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewEngine(g, EngineOptions{D: 3, Shards: shards, OwnedShards: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1's owner is down: its probe and scatter legs must fall back
	// to the coordinator's local execution without changing any byte.
	exec := &wireExec{
		owners: map[int]*Engine{0: owner, 1: owner, 2: owner},
		failed: map[int]bool{1: true},
	}
	for _, q := range goldenCorpora()[1].queries {
		opts := SearchOptions{K: goldenK, Algorithm: Auto, MaxRowsPerTable: goldenRows}
		want, _, err := coord.SearchPlan(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := coord.SearchDistributed(context.Background(), exec, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if lw, lg := renderGolden(q, want), renderGolden(q, got); lw != lg {
			t.Fatalf("%q: fallback answers differ\nlocal:\n%s\ndistributed:\n%s", q, lw, lg)
		}
	}
}

func TestPartialEngineGuards(t *testing.T) {
	g := loadCorpus(t, "testdata/corpus/imdb.txt")
	part, err := NewEngine(g, EngineOptions{D: 3, Shards: 3, OwnedShards: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if part.Complete() {
		t.Fatal("partial engine claims completeness")
	}
	if got := part.OwnedShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("OwnedShards = %v, want [1]", got)
	}
	// Every whole-query entry point refuses instead of dereferencing a
	// non-resident shard (inside a scatter goroutine, for most of them).
	ctx := context.Background()
	_, searchErr := part.Search("taylor", 5)
	_, planErr := part.Plan(ctx, "taylor", SearchOptions{Algorithm: Auto})
	_, prepErr := part.Prepare("taylor", SearchOptions{K: 5})
	_, treesErr := part.SearchTrees("taylor", 5)
	_, explainErr := part.Explain("taylor")
	for name, err := range map[string]error{
		"Search": searchErr, "Plan": planErr, "Prepare": prepErr, "SearchTrees": treesErr, "Explain": explainErr,
	} {
		if !errors.Is(err, ErrPartialEngine) {
			t.Errorf("%s on partial engine: err = %v, want ErrPartialEngine", name, err)
		}
	}
	if _, err := part.ScatterShard(context.Background(), 0, PatternEnum, "taylor", SearchOptions{K: 5}); err == nil {
		t.Fatal("scatter of non-resident shard succeeded")
	}
	if _, err := part.ScatterShard(context.Background(), 1, PatternEnum, "taylor", SearchOptions{K: 5}); err != nil {
		t.Fatalf("scatter of resident shard: %v", err)
	}
	// Updates must route through partial engines too (replication replay).
	var u Update
	id := u.AddEntity("Person", "gather test person")
	u.AddTextAttr(id, "note", "taylor night")
	if _, _, err := part.ApplyUpdate(u); err != nil {
		t.Fatalf("ApplyUpdate on partial engine: %v", err)
	}
}
