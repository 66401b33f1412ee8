package shard

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
)

// TestHealthyPartialsPass: every partial that an owner holding the same
// shard contents produces passes fromWire's checks, so a healthy cluster
// never re-runs a leg locally. It covers the golden workload (the module's
// golden corpora generators and queries), PatternEnum and LinearEnum, at
// every shard count, before and after the same update chain runs on the
// coordinator and on every owner. No check may intern into the
// coordinator's pattern tables.
func TestHealthyPartialsPass(t *testing.T) {
	corpora := map[string]struct {
		g       *kg.Graph
		queries []string
	}{
		"wiki": {
			dataset.SynthWiki(dataset.WikiConfig{Entities: 160, Types: 12, AttrVocab: 30, Vocab: 60, Seed: 42}),
			[]string{"washington", "washington city", "population river", "software company revenue", "database university",
				"album band", "movie actor director", "capital state", "book author publisher", "school season"},
		},
		"imdb": {
			dataset.SynthIMDB(dataset.IMDBConfig{Movies: 60, Seed: 42}),
			[]string{"taylor", "night star", "king taylor", "star man", "man secret",
				"story movie", "king movie", "star wilson", "night moore", "man director"},
		},
	}
	ctx := context.Background()
	opts := search.Options{K: 10, MaxTreesPerPattern: 6}
	iopts := index.Options{D: 3}
	for name, c := range corpora {
		for _, n := range shardCounts {
			coord, err := NewEngine(c.g, n, iopts)
			if err != nil {
				t.Fatal(err)
			}
			owners := make([]*Engine, n) // one owner node per shard
			for si := range owners {
				if owners[si], err = NewPartialEngine(c.g, n, []int{si}, iopts); err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string) {
				lens := make([]int, n)
				for si := range lens {
					lens[si] = coord.Index(si).PatternTable().Len()
				}
				for _, q := range c.queries {
					for _, algo := range []search.Algo{search.AlgoPE, search.AlgoLE} {
						for si, owner := range owners {
							p, err := owner.ScatterShard(ctx, si, algo, q, opts)
							if err != nil {
								t.Fatal(err)
							}
							b, err := json.Marshal(p)
							if err != nil {
								t.Fatal(err)
							}
							var wire WirePartial
							if err := json.Unmarshal(b, &wire); err != nil {
								t.Fatal(err)
							}
							if _, err := coord.fromWire(si, q, &wire); err != nil {
								t.Fatalf("%s %s shards=%d %v %q: healthy partial rejected: %v", name, stage, n, algo, q, err)
							}
						}
					}
				}
				for si, l := range lens {
					if got := coord.Index(si).PatternTable().Len(); got != l {
						t.Fatalf("%s %s shards=%d: shard %d table grew %d -> %d", name, stage, n, si, l, got)
					}
				}
			}
			check("fresh")
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 6; i++ {
				ch, err := randomUpdate(rng, coord.Graph())
				if err != nil {
					t.Fatal(err)
				}
				if coord, _, err = coord.ApplyDelta(ch); err != nil {
					t.Fatal(err)
				}
				for si := range owners {
					if owners[si], _, err = owners[si].ApplyDelta(ch); err != nil {
						t.Fatal(err)
					}
				}
			}
			check("after updates")
		}
	}
}
