package shard

import (
	"context"
	"encoding/json"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/search"
)

// FuzzScatterPartial decodes the input as a remote leg's partial for a
// 2-shard Figure-1 engine and hands it to fromWire, for each shard. It
// must never panic, never intern a path, and any partial it accepts must
// be one the gather can merge: patterns strictly ascending by content,
// every pattern's roots strictly ascending and owned by the shard, every
// root partial counting at least one subtree.
func FuzzScatterPartial(f *testing.F) {
	g, _ := dataset.Fig1()
	e, err := NewEngine(g, 2, index.Options{D: 3})
	if err != nil {
		f.Fatal(err)
	}
	const query = "database software company revenue"
	ctx := context.Background()
	patterns := 0
	for si := 0; si < 2; si++ {
		for _, algo := range []search.Algo{search.AlgoPE, search.AlgoLE} {
			p, err := e.ScatterShard(ctx, si, algo, query, search.Options{K: 5})
			if err != nil {
				f.Fatal(err)
			}
			seed, err := json.Marshal(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
			patterns += len(p.Patterns)
		}
	}
	if patterns == 0 {
		f.Fatal("no seed partial holds a pattern")
	}
	f.Add([]byte(`{"shard":1,"patterns":[]}`))
	lens := [2]int{e.units[0].ix.PatternTable().Len(), e.units[1].ix.PatternTable().Len()}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p WirePartial
		if json.Unmarshal(data, &p) != nil {
			return
		}
		for si := 0; si < 2; si++ {
			out, err := e.fromWire(si, query, &p)
			if got := e.units[si].ix.PatternTable().Len(); got != lens[si] {
				t.Fatalf("shard %d: pattern table grew from %d to %d", si, lens[si], got)
			}
			if err != nil {
				continue
			}
			pt := e.units[si].ix.PatternTable()
			for i, rp := range out.patterns {
				if i > 0 && out.patterns[i-1].Pattern.ContentKey(pt) >= rp.Pattern.ContentKey(pt) {
					t.Fatalf("shard %d: accepted patterns %d and %d out of content order", si, i-1, i)
				}
				for x, ra := range rp.RootAggs {
					if x > 0 && ra.Root <= rp.RootAggs[x-1].Root {
						t.Fatalf("shard %d pattern %d: accepted roots out of order", si, i)
					}
					if e.Owner(ra.Root) != si {
						t.Fatalf("shard %d pattern %d: accepted root %d of shard %d", si, i, ra.Root, e.Owner(ra.Root))
					}
					if ra.Agg.Count < 1 {
						t.Fatalf("shard %d pattern %d: accepted a root partial of count %d", si, i, ra.Agg.Count)
					}
				}
			}
		}
	})
}
