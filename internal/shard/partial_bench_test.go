package shard

import (
	"context"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/search"
)

// BenchmarkScatterPartial times what a remote leg's partial costs beyond
// computing it: AppendPartial on the owner, DecodePartial and fromWire on
// the coordinator. Its legs are both shards' partials of the first eight
// answerable queries of the root benchmarks' reduced-scale wiki workload
// (4,000 entities, 60 types, seed 1) at two shards; B/partial is the mean
// frame size.
func BenchmarkScatterPartial(b *testing.B) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 4000, Types: 60, Seed: 1})
	e, err := NewEngine(g, 2, index.Options{D: 3})
	if err != nil {
		b.Fatal(err)
	}
	type leg struct {
		si    int
		query string
		p     *WirePartial
	}
	var legs []leg
	answered := 0
	ctx := context.Background()
	for _, q := range dataset.Workload(g, dataset.WorkloadConfig{PerM: 5, MaxM: 8, Seed: 1}) {
		before := len(legs)
		for si := 0; si < 2; si++ {
			p, err := e.ScatterShard(ctx, si, search.AlgoPE, q.Text, search.Options{K: 10})
			if err != nil {
				b.Fatal(err)
			}
			if len(p.Patterns) > 0 {
				legs = append(legs, leg{si, q.Text, p})
			}
		}
		if answered += min(1, len(legs)-before); answered == 8 {
			break
		}
	}
	if len(legs) == 0 {
		b.Fatal("no bench query has a pattern")
	}
	frameBytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := legs[i%len(legs)]
		frame := AppendPartial(nil, 1, l.p)
		frameBytes += len(frame)
		_, p, err := DecodePartial(frame)
		if err != nil {
			b.Fatal(err)
		}
		words, _ := search.ResolveQuery(e.dict, l.query)
		if _, err := e.fromWire(l.si, len(words), p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(frameBytes)/float64(b.N), "B/partial")
}
