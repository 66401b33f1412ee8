package kbtable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"kbtable/internal/cache"
	"kbtable/internal/kg"
	"kbtable/internal/search"
	"kbtable/internal/shard"
)

// The cluster facade under failure: scattering per-shard legs to owner
// engines (through a JSON wire round-trip, as internal/cluster does over
// HTTP) and gathering the partials on a full coordinator engine
// reproduces SearchPlan's answers bit for bit when legs fail, or return
// corrupt partials, and fall back to local execution. Healthy legs are
// the equivalence matrix's cluster axis (equivalence_test.go).

// wireExec routes shard legs to partial owner engines through a JSON
// encode/decode of every wire value, like the HTTP transport does.
type wireExec struct {
	owners  map[int]*Engine          // shard -> owner engine
	failed  map[int]bool             // shards whose owner is "down"
	fail    failLegs                 // which legs of a failed shard fail
	corrupt func(*ShardPartial) bool // rewrites a decoded partial; reports a change
	altered atomic.Int64             // partials corrupt changed
}

// failLegs selects the legs a down owner fails: both, or only one kind.
type failLegs int

const (
	failBoth failLegs = iota
	failProbe
	failScatter
)

func (x *wireExec) ownerFor(si int, leg failLegs) (*Engine, error) {
	if x.failed[si] && (x.fail == failBoth || x.fail == leg) {
		return nil, errors.New("owner down")
	}
	e, ok := x.owners[si]
	if !ok {
		return nil, fmt.Errorf("no owner for shard %d", si)
	}
	return e, nil
}

func (x *wireExec) ProbeShard(ctx context.Context, si int, query string, opts SearchOptions) (ShardPlanStats, error) {
	e, err := x.ownerFor(si, failProbe)
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
	e, err := x.ownerFor(si, failScatter)
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
	if x.corrupt != nil && x.corrupt(&rt) {
		x.altered.Add(1)
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

// TestSearchDistributedFallback fails every non-empty subset of shard
// owners — both legs, the probe only, the scatter only — at 2 and 3
// shards: every failed leg re-runs on the coordinator and no byte of any
// answer changes.
func TestSearchDistributedFallback(t *testing.T) {
	g := loadCorpus(t, "testdata/corpus/imdb.txt")
	ctx := context.Background()
	opts := SearchOptions{K: goldenK, Algorithm: Auto, MaxRowsPerTable: goldenRows}
	queries := goldenCorpora()[1].queries
	for _, shards := range []int{2, 3} {
		coord, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		coord.plans = cache.New[search.PlanStats](0) // every Auto query probes, so probe legs run (and fail) too
		owner, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]Answer, len(queries))
		for i, q := range queries {
			if want[i], _, err = coord.SearchPlan(ctx, q, opts); err != nil {
				t.Fatal(err)
			}
		}
		for mask := 1; mask < 1<<shards; mask++ {
			for _, fail := range []failLegs{failBoth, failProbe, failScatter} {
				exec := &wireExec{owners: map[int]*Engine{}, failed: map[int]bool{}, fail: fail}
				for si := 0; si < shards; si++ {
					exec.owners[si] = owner
					exec.failed[si] = mask&(1<<si) != 0
				}
				for i, q := range queries {
					got, _, err := coord.SearchDistributed(ctx, exec, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want[i], got) {
						t.Fatalf("shards=%d failed=%b legs=%d %q: fallback answers differ\nlocal:\n%s\ndistributed:\n%s",
							shards, mask, fail, q, renderGolden(q, want[i]), renderGolden(q, got))
					}
				}
			}
		}
	}
}

// TestSearchDistributedRejectsCorruptPartials feeds the gather partials
// corrupted after the wire round-trip. Each is rejected and its leg re-run
// locally: the answers stay SearchPlan's, nothing panics, and no wire path
// is interned into the coordinator's pattern tables.
func TestSearchDistributedRejectsCorruptPartials(t *testing.T) {
	g := loadCorpus(t, "testdata/corpus/wiki.txt")
	ctx := context.Background()
	const q = "software company revenue"
	opts := SearchOptions{K: goldenK, Algorithm: PatternEnum, MaxRowsPerTable: goldenRows}
	coord, err := NewEngine(g, EngineOptions{D: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewEngine(g, EngineOptions{D: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := coord.SearchPlan(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	tableLens := func() []int {
		return []int{coord.sh.Index(0).PatternTable().Len(), coord.sh.Index(1).PatternTable().Len()}
	}
	lens := tableLens()

	// foreign returns the smallest node above after that another shard
	// owns, or -1.
	foreign := func(si int, after int64) int64 {
		for v := after + 1; v < int64(coord.sh.Graph().NumNodes()); v++ {
			if coord.sh.Owner(kg.NodeID(v)) != si {
				return v
			}
		}
		return -1
	}
	// onPattern applies f to the first pattern with at least minRoots roots.
	onPattern := func(minRoots int, f func(p *ShardPartial, wp *shard.WirePattern) bool) func(*ShardPartial) bool {
		return func(p *ShardPartial) bool {
			for i := range p.Patterns {
				if len(p.Patterns[i].RootAggs) >= minRoots {
					return f(p, &p.Patterns[i])
				}
			}
			return false
		}
	}
	corruptions := map[string]func(*ShardPartial) bool{
		"mislabeled shard": func(p *ShardPartial) bool { p.Shard = 1 - p.Shard; return true },
		// Patterns[0] is the leg's first pattern in content order.
		"duplicated pattern": func(p *ShardPartial) bool {
			p.Patterns = append(p.Patterns, p.Patterns[0])
			return len(p.Patterns) > 1
		},
		"swapped patterns": func(p *ShardPartial) bool {
			if len(p.Patterns) < 2 {
				return false
			}
			last := len(p.Patterns) - 1
			p.Patterns[0], p.Patterns[last] = p.Patterns[last], p.Patterns[0]
			return true
		},
		// Every pattern's first root, so the leg's top patterns are hit.
		"zero-count root": func(p *ShardPartial) bool {
			for i := range p.Patterns {
				p.Patterns[i].RootAggs[0].Count = 0
			}
			return len(p.Patterns) > 0
		},
		"NaN sum": func(p *ShardPartial) bool {
			for i := range p.Patterns {
				p.Patterns[i].RootAggs[0].Sum = math.NaN()
			}
			return len(p.Patterns) > 0
		},
		"rootless pattern": func(p *ShardPartial) bool {
			if len(p.Patterns) == 0 {
				return false
			}
			p.Patterns[0].RootAggs = nil
			return true
		},
		"unknown type": onPattern(1, func(_ *ShardPartial, wp *shard.WirePattern) bool {
			wp.Paths[0].Types[0] = 9999
			return true
		}),
		"empty types": onPattern(1, func(_ *ShardPartial, wp *shard.WirePattern) bool {
			wp.Paths[0].Types = nil
			return true
		}),
		"missing path": onPattern(1, func(_ *ShardPartial, wp *shard.WirePattern) bool {
			wp.Paths = wp.Paths[1:]
			return true
		}),
		"extra path": onPattern(1, func(_ *ShardPartial, wp *shard.WirePattern) bool {
			wp.Paths = append(wp.Paths, wp.Paths[0])
			return true
		}),
		"descending roots": onPattern(2, func(_ *ShardPartial, wp *shard.WirePattern) bool {
			wp.RootAggs[0], wp.RootAggs[1] = wp.RootAggs[1], wp.RootAggs[0]
			return true
		}),
		"repeated root": onPattern(2, func(_ *ShardPartial, wp *shard.WirePattern) bool {
			wp.RootAggs[1].Root = wp.RootAggs[0].Root
			return true
		}),
		"foreign root": onPattern(1, func(p *ShardPartial, wp *shard.WirePattern) bool {
			last := len(wp.RootAggs) - 1
			prev := int64(-1)
			if last > 0 {
				prev = wp.RootAggs[last-1].Root
			}
			v := foreign(p.Shard, prev)
			wp.RootAggs[last].Root = v
			return v >= 0
		}),
		"root past the graph": onPattern(1, func(_ *ShardPartial, wp *shard.WirePattern) bool {
			wp.RootAggs[len(wp.RootAggs)-1].Root = int64(coord.sh.Graph().NumNodes())
			return true
		}),
	}
	for name, corrupt := range corruptions {
		exec := &wireExec{owners: map[int]*Engine{0: owner, 1: owner}, corrupt: corrupt}
		got, _, err := coord.SearchDistributed(ctx, exec, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if exec.altered.Load() == 0 {
			t.Fatalf("%s: no partial was corrupted", name)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: answers differ from SearchPlan\nlocal:\n%s\ndistributed:\n%s", name, renderGolden(q, want), renderGolden(q, got))
		}
		if got := tableLens(); !reflect.DeepEqual(got, lens) {
			t.Fatalf("%s: coordinator pattern tables grew from %v to %v", name, lens, got)
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
	_, prepErr := part.PrepareContext(context.Background(), "taylor", SearchOptions{K: 5})
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
