package shard

import (
	"bytes"
	"strings"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
)

func TestFromPartsValidation(t *testing.T) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 80, Types: 8, Seed: 1})
	iopts := index.Options{D: 3}
	e, err := NewEngine(g, 2, iopts)
	if err != nil {
		t.Fatal(err)
	}
	ixs := make([]*index.Index, 2)
	for si := range ixs {
		var buf bytes.Buffer
		if err := e.EncodeShard(si, &buf); err != nil {
			t.Fatal(err)
		}
		if ixs[si], err = index.Load(&buf, g, e.PageRank()); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := FromParts(nil, e.Owners(), ixs, nil, iopts); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := FromParts(g, nil, ixs, nil, iopts); err == nil {
		t.Error("missing ownership table accepted for two shards")
	}
	if _, err := FromParts(g, e.Owners()[:10], ixs, nil, iopts); err == nil {
		t.Error("short ownership table accepted")
	}
	bad := e.Owners()
	bad[0] = 7
	if _, err := FromParts(g, bad, ixs, nil, iopts); err == nil {
		t.Error("out-of-range owner accepted")
	}
	if _, err := FromParts(g, e.Owners(), ixs, []uint64{1}, iopts); err == nil {
		t.Error("epoch count mismatch accepted")
	}
	if _, err := FromParts(g, e.Owners(), ixs, nil, index.Options{D: 4}); err == nil {
		t.Error("d mismatch accepted")
	}
	if _, err := FromParts(g, e.Owners(), []*index.Index{ixs[0], nil}, nil, iopts); err == nil {
		t.Error("nil shard index accepted")
	}
	corpus := index.NewCorpus(g, nil)
	corpus.Dict().Intern("zeta")
	other, err := index.Build(g, index.Options{D: 3, Corpus: corpus, PageRank: e.PageRank(), RootFilter: e.filter(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromParts(g, e.Owners(), []*index.Index{ixs[0], other}, nil, iopts); err == nil || !strings.Contains(err.Error(), "shard 1 dictionary") {
		t.Errorf("disagreeing shard dictionaries: %v, want an error naming shard 1", err)
	}

	// A snapshot whose dictionary lacks a word of its graph is refused:
	// the shard files of g bound to a graph that retexts a node.
	d := kg.NewDelta(g)
	if err := d.SetText(0, "quasar"); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	uncovered := make([]*index.Index, 2)
	for si := range uncovered {
		var buf bytes.Buffer
		if err := e.EncodeShard(si, &buf); err != nil {
			t.Fatal(err)
		}
		if uncovered[si], err = index.Load(&buf, ch.New, e.PageRank()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FromParts(ch.New, e.Owners(), uncovered, nil, iopts); err == nil || !strings.Contains(err.Error(), `"quasar" is not in the dictionary`) {
		t.Errorf("a dictionary that does not cover its graph: %v, want an error naming the missing word", err)
	}

	// Each loaded index decoded a dictionary of its own; the engine keeps
	// one for every shard.
	loaded, err := FromParts(g, e.Owners(), ixs, nil, iopts)
	if err != nil {
		t.Fatal(err)
	}
	for si := range ixs {
		if loaded.Index(si).Dict() != loaded.Dict() {
			t.Errorf("shard %d keeps its own decoded dictionary", si)
		}
	}
}
