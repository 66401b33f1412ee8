// Command kbindex builds the path-pattern indexes for a knowledge base at
// one or more height thresholds and reports construction cost — the
// quantities of the paper's Figure 6.
//
// With -snapshot it instead emits a durable snapshot directory (the
// format kbserve -data-dir recovers from): the serialized graph plus one
// checksummed index file per shard under a manifest, so a server cold
// start loads the index instead of rebuilding it.
//
// Usage:
//
//	kbindex -kb wiki.kb -d 2,3,4                  # report build costs
//	kbindex -kb wiki.kb -d 3 -snapshot ./data     # emit a snapshot
//	kbindex -kb wiki.kb -d 3 -shards 4 -snapshot ./data
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"kbtable"
	"kbtable/internal/index"
	"kbtable/internal/kg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbindex: ")
	kbPath := flag.String("kb", "kb.gob", "knowledge base file written by kbgen")
	ds := flag.String("d", "3", "comma-separated height thresholds")
	workers := flag.Int("workers", 0, "construction workers (0 = GOMAXPROCS)")
	snapshot := flag.String("snapshot", "", "emit a durable snapshot directory (kbserve -data-dir format) instead of the cost report")
	shards := flag.Int("shards", 1, "-snapshot: partition candidate roots across this many index shards")
	uniformPR := flag.Bool("uniform-pr", false, "-snapshot: score with uniform PageRank")
	flag.Parse()

	if *snapshot != "" {
		emitSnapshot(*kbPath, *ds, *snapshot, *shards, *workers, *uniformPR)
		return
	}

	g, err := kg.LoadFile(*kbPath)
	if err != nil {
		log.Fatal(err)
	}
	s := g.Stats()
	fmt.Printf("graph: %d entities, %d edges, %d types\n", s.Nodes, s.Edges, s.Types)
	fmt.Printf("%-4s %-10s %-10s %-9s %-12s %-10s\n", "d", "time", "size(MB)", "B/entry", "entries", "patterns")
	for _, part := range strings.Split(*ds, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("bad -d value %q: %v", part, err)
		}
		ix, err := index.Build(g, index.Options{D: d, Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		st := ix.Stats()
		fmt.Printf("%-4d %-10s %-10.1f %-9.1f %-12d %-10d\n",
			d, st.BuildTime.Round(1e6), float64(st.Bytes)/(1<<20), st.BytesPerEntry(), st.NumEntries, st.NumPatterns)
	}
}

// emitSnapshot builds the engine once and checkpoints it into dir.
func emitSnapshot(kbPath, ds, dir string, shards, workers int, uniformPR bool) {
	d, err := strconv.Atoi(strings.TrimSpace(ds))
	if err != nil {
		log.Fatalf("-snapshot needs a single -d value, got %q", ds)
	}
	g, err := kbtable.LoadGraph(kbPath)
	if err != nil {
		log.Fatal(err)
	}
	st, err := kbtable.OpenStoreOpts(dir, kbtable.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	if st.HasSnapshot() {
		log.Fatalf("%s already holds a snapshot; refusing to overwrite (serve it with kbserve -data-dir, or pick a fresh directory)", dir)
	}
	t0 := time.Now()
	eng, err := kbtable.NewEngine(g, kbtable.EngineOptions{
		D: d, Shards: shards, Workers: workers, UniformPageRank: uniformPR,
	})
	if err != nil {
		log.Fatal(err)
	}
	build := time.Since(t0)
	cs, err := eng.Checkpoint(st)
	if err != nil {
		log.Fatal(err)
	}
	is := eng.IndexStats()
	fmt.Printf("graph: %d entities, %d attributes\n", g.NumEntities(), g.NumAttributes())
	fmt.Printf("index: d=%d, %d shard(s), %d entries, %.1f MB resident (%.1f B/entry), built in %v\n",
		d, eng.ShardInfo().Count, is.Entries, is.SizeMB, is.BytesPerEntry, build.Round(time.Millisecond))
	fmt.Printf("snapshot: %s — %d files, %.1f MB, written in %v\n",
		dir, cs.Files, float64(cs.Bytes)/(1<<20), cs.Elapsed.Round(time.Millisecond))
}
