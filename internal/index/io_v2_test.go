package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"kbtable/internal/dataset"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
	"kbtable/internal/text"
)

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
		requireSameColumns(t, fmt.Sprintf("%s: word %d (%q) after load", label, w, built.Dict().Word(text.WordID(w))), &loaded.words[w], &built.words[w])
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
				loaded, err := Load(bytes.NewReader(wire), c.g, nil)
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

// TestWireV2CorruptionMatrix damages every section of a wire stream in
// every way — truncation mid-payload, a flipped payload byte, a flipped
// checksum byte — and a term pool with a node outside the graph or the
// PR vector, and requires Load to fail cleanly each time.
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
		if _, err := Load(bytes.NewReader(data), g, nil); err == nil {
			t.Errorf("%s: corrupted snapshot loaded without error", label)
		}
	}

	// A well-framed block whose pool entry names a node past the graph
	// (under PageRank) or past the uniform vector's one node.
	pr := rank.PageRank(g, rank.Options{})
	for _, c := range []struct {
		name string
		node kg.NodeID
		pr   []float64
	}{
		{"pool node past the graph", kg.NodeID(g.NumNodes()), pr},
		{"pool node past the uniform vector", 1, nil},
	} {
		bad, err := Build(g, Options{D: 3, PageRank: c.pr, UniformPR: c.pr == nil})
		if err != nil {
			t.Fatal(err)
		}
		for w := range bad.words {
			if bad.words[w].n > 0 {
				bad.words[w].termPool[0].node = c.node
				break
			}
		}
		var bbuf bytes.Buffer
		if err := bad.Encode(&bbuf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(bbuf.Bytes()), g, c.pr); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: Load error = %v, want a node out of range", c.name, err)
		}
	}

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

// v1FixturePath is a checked-in legacy gob snapshot, exactly what a
// pre-v2 build produced. This build has no reader for it: it is kept as
// the negative input of the refusal test below.
const v1FixturePath = "testdata/index-v1.gob"

// TestWireV1GobFixture pins what happens to a stream without the current
// wire magic — an old gob snapshot, a wire-v2 stream, an empty file, a
// stream cut inside the magic, a current stream with a damaged magic:
// Load refuses it with the one error that names the expected magic and
// the remedy, and no decoder runs on the bytes.
func TestWireV1GobFixture(t *testing.T) {
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
	gob, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatalf("read v1 fixture: %v", err)
	}
	flipped := append([]byte(nil), wire...)
	flipped[0] ^= 0xFF
	v2 := append([]byte("KBX2"), wire[len(wireMagic):]...)

	for _, c := range []struct {
		name string
		data []byte
	}{
		{"v1 gob snapshot", gob},
		{"wire-v2 stream", v2},
		{"empty file", nil},
		{"truncated magic", wire[:len(wireMagic)-1]},
		{"flipped magic", flipped},
	} {
		if _, err := Load(bytes.NewReader(c.data), g, nil); !errors.Is(err, errNotCurrentWire) {
			t.Errorf("%s: Load error = %v, want errNotCurrentWire", c.name, err)
		}
	}
	for _, want := range []string{wireMagic, "kbindex"} {
		if !strings.Contains(errNotCurrentWire.Error(), want) {
			t.Errorf("refusal %q does not mention %q", errNotCurrentWire, want)
		}
	}
	// A failed read is reported as itself, not as a foreign format.
	boom := errors.New("boom")
	if _, err := Load(iotest.ErrReader(boom), g, nil); !errors.Is(err, boom) {
		t.Errorf("failing reader: Load error = %v, want it to wrap the read error", err)
	}
	// A stream cut right after a sound magic is a current stream: it fails
	// in the header frame's own checks, not as a foreign format.
	if _, err := Load(bytes.NewReader(wire[:len(wireMagic)]), g, nil); err == nil || errors.Is(err, errNotCurrentWire) {
		t.Errorf("magic-only stream: Load error = %v, want a header error", err)
	}
}
