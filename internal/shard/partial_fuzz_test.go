package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/search"
	"kbtable/internal/wire"
)

// FuzzScatterPartial decodes the input as a remote leg's scatter frame
// for a 2-shard Figure-1 engine (DecodePartial) and hands what decodes to
// fromWire, for each shard. It must never panic, never intern a path, and
// any partial it accepts must be one the gather can merge: patterns
// strictly ascending by content, every pattern's roots strictly ascending
// and owned by the shard, every root partial counting at least one
// subtree. Its seeds are the real PE and LE frames of both shards, each of
// which must decode to the partial it encodes.
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
			seed := AppendPartial(nil, uint64(si+7), p)
			seq, got, err := DecodePartial(seed)
			if err != nil || seq != uint64(si+7) || !reflect.DeepEqual(got, p) {
				f.Fatalf("shard %d algo %v: frame round trip: seq %d, err %v\nsent %+v\ngot  %+v", si, algo, seq, err, p, got)
			}
			f.Add(seed)
			patterns += len(p.Patterns)
		}
	}
	if patterns == 0 {
		f.Fatal("no seed partial holds a pattern")
	}
	f.Add(AppendPartial(nil, 0, &WirePartial{Shard: 1}))
	lens := [2]int{e.units[0].ix.PatternTable().Len(), e.units[1].ix.PatternTable().Len()}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, sealed(data)} {
			if _, p, err := DecodePartial(frame); err == nil {
				checkFromWire(t, e, query, p, lens)
			}
		}
	})
}

// sealed re-frames what data holds between a magic-and-length prefix and
// a checksum with a correct length and checksum (nil when data has no
// such prefix), so the fuzzer's mutations reach the payload decoder.
func sealed(data []byte) []byte {
	if !bytes.HasPrefix(data, []byte(partialMagic)) {
		return nil
	}
	_, k := binary.Uvarint(data[len(partialMagic):])
	if k <= 0 || len(data) < len(partialMagic)+k+4 {
		return nil
	}
	payload := data[len(partialMagic)+k : len(data)-4]
	out := binary.AppendUvarint([]byte(partialMagic), uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(append(out, payload...), crc32.Checksum(payload, wire.CRC))
}

// checkFromWire hands p to fromWire for each shard of e and holds what it
// accepts to the gather's preconditions.
func checkFromWire(t *testing.T, e *Engine, query string, p *WirePartial, lens [2]int) {
	t.Helper()
	words, _ := search.ResolveQuery(e.Dict(), query)
	for si := 0; si < 2; si++ {
		out, err := e.fromWire(si, len(words), p)
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
}
