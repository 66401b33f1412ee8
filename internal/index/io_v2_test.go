package index

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// updateFixtures regenerates the checked-in wire fixtures:
//
//	go test ./internal/index -run TestWireV1GobFixture -update
var updateFixtures = flag.Bool("update", false, "regenerate testdata fixtures")

// wireCorpora are the round-trip corpora: the paper's Figure 1 plus small
// instances of both synthetic knowledge bases (distinct type/attribute
// schemas, text shapes, and fan-outs).
func wireCorpora() []struct {
	name string
	g    *kg.Graph
} {
	fig1, _ := dataset.Fig1()
	return []struct {
		name string
		g    *kg.Graph
	}{
		{"fig1", fig1},
		{"synthwiki", dataset.SynthWiki(dataset.WikiConfig{Entities: 400, Types: 12, AttrVocab: 16, Vocab: 90, Seed: 7})},
		{"synthimdb", dataset.SynthIMDB(dataset.IMDBConfig{Movies: 120, Seed: 7})},
	}
}

// requireDeepEqualWords asserts the loaded index reproduces the built
// index's columnar postings exactly — every arena, group table, bound,
// and both views — not merely content-equivalent postings.
func requireDeepEqualWords(t *testing.T, label string, built, loaded *Index) {
	t.Helper()
	if len(built.words) != len(loaded.words) {
		t.Fatalf("%s: word count %d vs %d", label, len(built.words), len(loaded.words))
	}
	for w := range built.words {
		if !reflect.DeepEqual(built.words[w], loaded.words[w]) {
			t.Fatalf("%s: word %d (%q) differs after load: n=%d vs n=%d",
				label, w, built.Dict().Word(text.WordID(w)), built.words[w].n, loaded.words[w].n)
		}
	}
	if built.Stats().NumEntries != loaded.Stats().NumEntries {
		t.Fatalf("%s: entries %d vs %d", label, built.Stats().NumEntries, loaded.Stats().NumEntries)
	}
	if built.Stats().NumPatterns != loaded.Stats().NumPatterns {
		t.Fatalf("%s: patterns %d vs %d", label, built.Stats().NumPatterns, loaded.Stats().NumPatterns)
	}
	if built.Stats().Bytes != loaded.Stats().Bytes {
		t.Fatalf("%s: resident bytes %d vs %d", label, built.Stats().Bytes, loaded.Stats().Bytes)
	}
	if built.D() != loaded.D() {
		t.Fatalf("%s: D %d vs %d", label, built.D(), loaded.D())
	}
	if !reflect.DeepEqual(built.Dict().Snapshot(), loaded.Dict().Snapshot()) {
		t.Fatalf("%s: dictionary differs after load", label)
	}
	if !reflect.DeepEqual(built.PatternTable().Snapshot(), loaded.PatternTable().Snapshot()) {
		t.Fatalf("%s: pattern table differs after load", label)
	}
}

// TestWireV2RoundTripShards is the round-trip property test: for every
// corpus and shard width, each shard's index (built under the shard
// engine's RootFilter) must encode to v2 and decode back deep-equal, and
// a re-encode of the loaded index must be byte-identical (the format is
// deterministic).
func TestWireV2RoundTripShards(t *testing.T) {
	for _, c := range wireCorpora() {
		for _, shards := range []int{1, 2, 3} {
			for s := 0; s < shards; s++ {
				label := fmt.Sprintf("%s/shards=%d/shard=%d", c.name, shards, s)
				opts := Options{D: 3, UniformPR: true, Workers: 2}
				if shards > 1 {
					s := s
					opts.RootFilter = func(r kg.NodeID) bool { return int(r)%shards == s }
				}
				ix, err := Build(c.g, opts)
				if err != nil {
					t.Fatalf("%s: build: %v", label, err)
				}
				var buf bytes.Buffer
				if err := ix.Encode(&buf); err != nil {
					t.Fatalf("%s: encode: %v", label, err)
				}
				wire := append([]byte(nil), buf.Bytes()...)
				if v, err := SniffWireVersion(bytes.NewReader(wire)); err != nil || v != WireVersion {
					t.Fatalf("%s: sniffed version %d (%v), want %d", label, v, err, WireVersion)
				}
				loaded, err := Load(bytes.NewReader(wire), c.g)
				if err != nil {
					t.Fatalf("%s: load: %v", label, err)
				}
				requireDeepEqualWords(t, label, ix, loaded)
				diffCanonical(t, label, canonical(loaded), canonical(ix))
				var buf2 bytes.Buffer
				if err := loaded.Encode(&buf2); err != nil {
					t.Fatalf("%s: re-encode: %v", label, err)
				}
				if !bytes.Equal(wire, buf2.Bytes()) {
					t.Fatalf("%s: re-encoding the loaded index changed the bytes (%d vs %d)", label, len(wire), buf2.Len())
				}
			}
		}
	}
}

// TestBuildBytesIndependentOfWorkers pins build determinism: PatternIDs
// are numbered as a serial build numbers them, so the same graph encodes
// to the same bytes at any worker count — unfiltered (one shard) and under
// each root filter of a three-way partition. With GOMAXPROCS >= 2 this
// fails if workers intern into a shared table in scheduling order.
func TestBuildBytesIndependentOfWorkers(t *testing.T) {
	for _, c := range wireCorpora() {
		for _, shards := range []int{1, 3} {
			for s := 0; s < shards; s++ {
				var want []byte
				for _, workers := range []int{1, 2, 8} {
					opts := Options{D: 3, Workers: workers}
					if shards > 1 {
						s := s
						opts.RootFilter = func(r kg.NodeID) bool { return int(r)%shards == s }
					}
					ix, err := Build(c.g, opts)
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := ix.Encode(&buf); err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = buf.Bytes()
					} else if !bytes.Equal(want, buf.Bytes()) {
						t.Fatalf("%s shard %d of %d: Workers=%d encodes differently from Workers=1 (%d vs %d bytes)",
							c.name, s, shards, workers, buf.Len(), len(want))
					}
				}
			}
		}
	}
}

// wireFrame locates one section frame inside an encoded v2 stream.
type wireFrame struct {
	id           byte
	start        int // offset of the id byte
	payloadStart int
	payloadLen   int
}

// parseWireFrames walks the container structure (magic + frames) without
// decoding payloads; the corruption matrix uses the offsets to damage
// each section precisely.
func parseWireFrames(t *testing.T, data []byte) []wireFrame {
	t.Helper()
	if string(data[:len(wireMagic)]) != wireMagic {
		t.Fatalf("stream does not start with %q", wireMagic)
	}
	var frames []wireFrame
	off := len(wireMagic)
	for off < len(data) {
		f := wireFrame{id: data[off], start: off}
		n, w := binary.Uvarint(data[off+1:])
		if w <= 0 {
			t.Fatalf("bad frame length at offset %d", off)
		}
		f.payloadStart = off + 1 + w
		f.payloadLen = int(n)
		frames = append(frames, f)
		off = f.payloadStart + f.payloadLen + 4 // payload + CRC
	}
	if off != len(data) {
		t.Fatalf("frame walk ended at %d of %d bytes", off, len(data))
	}
	return frames
}

// TestWireV2CorruptionMatrix damages every section of a v2 stream in
// every way — truncation mid-payload, a flipped payload byte, a flipped
// checksum byte — and requires Load to fail cleanly each time.
func TestWireV2CorruptionMatrix(t *testing.T) {
	g, _ := dataset.Fig1()
	ix, err := Build(g, Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	frames := parseWireFrames(t, wire)
	if len(frames) < 4 {
		t.Fatalf("expected header/dict/patterns/word/end frames, got %d", len(frames))
	}

	mustFail := func(label string, data []byte) {
		t.Helper()
		if _, err := Load(bytes.NewReader(data), g); err == nil {
			t.Errorf("%s: corrupted snapshot loaded without error", label)
		}
	}

	mustFail("truncated magic", wire[:2])
	flipped := append([]byte(nil), wire...)
	flipped[0] ^= 0xFF // no longer the magic: must not be misread as gob
	mustFail("flipped magic", flipped)

	for _, f := range frames {
		label := fmt.Sprintf("section %d", f.id)

		trunc := append([]byte(nil), wire[:f.payloadStart+f.payloadLen/2]...)
		mustFail(label+": truncated payload", trunc)

		if f.payloadLen > 0 {
			flip := append([]byte(nil), wire...)
			flip[f.payloadStart+f.payloadLen/3] ^= 0x40
			mustFail(label+": flipped payload byte", flip)
		}

		crcFlip := append([]byte(nil), wire...)
		crcFlip[f.payloadStart+f.payloadLen] ^= 0x01
		mustFail(label+": flipped checksum byte", crcFlip)
	}
}

// v1FixturePath is a checked-in legacy gob snapshot (written by
// EncodeLegacyGob, i.e. exactly what a pre-v2 build produced). The
// backward-compat gate below must keep loading it forever.
const v1FixturePath = "testdata/index-v1.gob"

func v1FixtureIndex(t *testing.T) (*Index, *kg.Graph) {
	t.Helper()
	g, _ := dataset.Fig1()
	ix, err := Build(g, Options{D: 3, UniformPR: true, Synonyms: map[string]string{"corp": "company"}})
	if err != nil {
		t.Fatal(err)
	}
	return ix, g
}

// TestWireV1GobFixture proves old gob snapshots still load, and load to
// the same in-memory index a fresh build (or a v2 round trip) produces:
// deep-equal columnar postings and a byte-identical v2 re-encoding.
func TestWireV1GobFixture(t *testing.T) {
	ix, g := v1FixtureIndex(t)
	if *updateFixtures {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(v1FixturePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.EncodeLegacyGob(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatalf("read v1 fixture: %v (regenerate with `go test ./internal/index -run TestWireV1GobFixture -update`)", err)
	}
	if v, err := SniffWireVersion(bytes.NewReader(data)); err != nil || v != 1 {
		t.Fatalf("fixture sniffs as version %d (%v), want 1", v, err)
	}
	loaded, err := Load(bytes.NewReader(data), g)
	if err != nil {
		t.Fatalf("this build can no longer load a v1 gob snapshot: %v", err)
	}
	requireDeepEqualWords(t, "v1-fixture", ix, loaded)
	diffCanonical(t, "v1-fixture", canonical(loaded), canonical(ix))

	var fresh, reenc bytes.Buffer
	if err := ix.Encode(&fresh); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Encode(&reenc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), reenc.Bytes()) {
		t.Fatalf("v2 encoding of the v1-loaded index differs from the fresh build's (%d vs %d bytes)",
			fresh.Len(), reenc.Len())
	}
}

// TestWireV2SmallerThanGob pins the headline footprint claim at test
// scale: the v2 container must be at least 30%% smaller than the legacy
// gob container for the same index.
func TestWireV2SmallerThanGob(t *testing.T) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 600, Types: 15, AttrVocab: 18, Vocab: 120, Seed: 3})
	ix, err := Build(g, Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	var v2, gob bytes.Buffer
	if err := ix.Encode(&v2); err != nil {
		t.Fatal(err)
	}
	if err := ix.EncodeLegacyGob(&gob); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= gob.Len()*7/10 {
		t.Fatalf("v2 snapshot %d bytes is not >=30%% smaller than gob %d bytes", v2.Len(), gob.Len())
	}
}
