package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/dataset"
	"kbtable/internal/kg"
	"kbtable/internal/rank"
	"kbtable/internal/text"
)

// groupKey names one (word, pattern) posting group.
type groupKey struct {
	w text.WordID
	p core.PatternID
}

// eagerBounds derives every group's PatternBounds of ix without touching a
// PR cell: the ranges come straight from the word's columns and vector.
func eagerBounds(ix *Index) map[groupKey]PatternBounds {
	out := map[groupKey]PatternBounds{}
	for w := range ix.words {
		wi := &ix.words[w]
		if wi.n == 0 {
			continue
		}
		ranges := wi.derivePR()
		for gi := range wi.patGroups {
			pg := &wi.patGroups[gi]
			b := &pg.bounds
			out[groupKey{text.WordID(w), pg.Pattern}] = PatternBounds{
				MinLen: int(b.minLen), MaxLen: int(b.maxLen),
				MinPR: ranges[gi].min, MaxPR: ranges[gi].max,
				MinSim: b.minSim, MaxSim: b.maxSim,
				MaxRun: int(b.maxRun),
			}
		}
	}
	return out
}

// derivedCells counts the words of ix with postings and how many of them
// hold derived PR ranges.
func derivedCells(ix *Index) (derived, total int) {
	for w := range ix.words {
		if wi := &ix.words[w]; wi.n > 0 {
			total++
			if wi.prc.ranges != nil {
				derived++
			}
		}
	}
	return derived, total
}

// requireLazyBounds has many goroutines read every PatternBounds(w, p) of
// ix at once, each in its own order, and fails unless every read equals
// the eagerly derived bounds and the resident size stayed put.
func requireLazyBounds(t *testing.T, label string, ix *Index) {
	t.Helper()
	want := eagerBounds(ix)
	keys := make([]groupKey, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Fatalf("%s: no posting groups", label)
	}
	if got := ix.sizeBytes(); got != ix.Stats().Bytes {
		t.Fatalf("%s: resident size %d before any read, Stats.Bytes %d", label, got, ix.Stats().Bytes)
	}
	const readers = 8
	got := make([][]PatternBounds, readers)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = make([]PatternBounds, len(keys))
			for i := range keys {
				j := (i + r*len(keys)/readers) % len(keys)
				b, ok := ix.PatternBounds(keys[j].w, keys[j].p)
				if !ok {
					b.MaxRun = -1
				}
				got[r][j] = b
			}
		}(r)
	}
	wg.Wait()
	for r := range got {
		for i, k := range keys {
			if got[r][i] != want[k] {
				t.Fatalf("%s: reader %d, word %q pattern %d: bounds %+v, derived eagerly %+v",
					label, r, ix.dict.Word(k.w), k.p, got[r][i], want[k])
			}
		}
	}
	if derived, total := derivedCells(ix); derived != total {
		t.Fatalf("%s: %d of %d words derived after reading every group", label, derived, total)
	}
	if got := ix.sizeBytes(); got != ix.Stats().Bytes {
		t.Fatalf("%s: resident size %d after derivation, Stats.Bytes %d", label, got, ix.Stats().Bytes)
	}
}

// TestLazyBoundsConcurrent walks a delta chain under PageRank that mixes
// structural updates, text-only updates and a Rebind. A fresh epoch's PR
// ranges are derived by nobody until read; a text-only epoch keeps its
// parent's cells, derived or not; on each epoch many goroutines read every
// group at once (the race run checks the cells' once), and every read must
// equal the ranges derived eagerly from the same index.
func TestLazyBoundsConcurrent(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "nu", "xi"}
	rng := rand.New(rand.NewSource(11))
	opts := Options{D: 3}
	cur, err := Build(dataset.SynthWiki(dataset.WikiConfig{Entities: 150, Types: 8, Seed: 5}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if derived, _ := derivedCells(cur); derived != 0 {
		t.Fatalf("build derived %d words' PR ranges", derived)
	}
	requireLazyBounds(t, "build", cur)
	entity := func(g *kg.Graph) kg.NodeID {
		for {
			if v := kg.NodeID(rng.Intn(g.NumNodes())); g.Type(v) != kg.LiteralType {
				return v
			}
		}
	}
	// Step 1 is a text-only child of a read epoch, step 3 one of an unread
	// epoch (step 2 is never read).
	steps := []struct {
		structural, read bool
	}{{true, true}, {false, true}, {true, false}, {false, true}, {true, true}}
	for s, step := range steps {
		label := fmt.Sprintf("step %d", s)
		g := cur.Graph()
		d := kg.NewDelta(g)
		if step.structural {
			v, err := d.AddEntity("Startup", vocab[rng.Intn(len(vocab))])
			if err != nil {
				t.Fatal(err)
			}
			if err := d.AddAttr(v, "funds", entity(g)); err != nil {
				t.Fatal(err)
			}
		} else if err := d.SetText(entity(g), vocab[rng.Intn(len(vocab))]); err != nil {
			t.Fatal(err)
		}
		ch, err := d.Apply()
		if err != nil {
			t.Fatal(err)
		}
		next, ds, err := cur.ApplyDelta(ch, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ds.ScoresRefreshed != step.structural {
			t.Fatalf("%s: ScoresRefreshed %v", label, ds.ScoresRefreshed)
		}
		touched := map[string]bool{}
		for _, w := range ds.TouchedWords {
			touched[w] = true
		}
		carried := 0
		for w := range cur.words {
			old, nu := &cur.words[w], &next.words[w]
			if old.n == 0 || touched[cur.dict.Word(text.WordID(w))] {
				continue
			}
			carried++
			if shared := old.prc == nu.prc; shared == step.structural {
				t.Fatalf("%s: carried word %q shares its parent's PR cell: %v", label, cur.dict.Word(text.WordID(w)), shared)
			}
		}
		if carried == 0 {
			t.Fatalf("%s: no word was carried over", label)
		}
		derived, total := derivedCells(next)
		switch {
		case step.structural && derived != 0:
			t.Fatalf("%s: a PageRank change left %d of %d words derived", label, derived, total)
		case !step.structural && steps[s-1].read && derived != carried:
			t.Fatalf("%s: %d words derived, want the %d carried from a read epoch", label, derived, carried)
		case !step.structural && !steps[s-1].read && derived != 0:
			t.Fatalf("%s: %d words derived under an unread parent", label, derived)
		}
		if step.read {
			requireLazyBounds(t, label, next)
		}
		cur = next
	}

	// Rebind: a shard that owns none of a structural delta's dirty roots.
	g := cur.Graph()
	d := kg.NewDelta(g)
	v, err := d.AddEntity("Startup", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddAttr(v, "funds", entity(g)); err != nil {
		t.Fatal(err)
	}
	ch, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, ch.New.NumNodes())
	for _, r := range kg.AffectedRoots(ch, 2) {
		dirty[r] = true
	}
	clean, err := Build(g, Options{D: 3, RootFilter: func(r kg.NodeID) bool { return !dirty[r] }})
	if err != nil {
		t.Fatal(err)
	}
	requireLazyBounds(t, "clean shard", clean)
	rebound := clean.Rebind(ch.New, rank.PageRank(ch.New, rank.Options{}), clean.Dict())
	if derived, total := derivedCells(rebound); derived != 0 {
		t.Fatalf("Rebind left %d of %d words derived", derived, total)
	}
	requireLazyBounds(t, "rebind", rebound)
	requireLazyBounds(t, "clean shard after rebind", clean)
}

// TestSplicedWordsGetOwnCells walks a UniformPR delta chain, where no
// update ever rebinds every word: each epoch gives a fresh PR cell to
// exactly its spliced words and carries every other word's cell, and
// binding a few spliced words among many carried ones allocates their
// cells alone, never a vocabulary-sized slab that a carried word would pin.
func TestSplicedWordsGetOwnCells(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "nu", "xi"}
	rng := rand.New(rand.NewSource(3))
	opts := Options{D: 3, UniformPR: true}
	cur, err := Build(dataset.SynthWiki(dataset.WikiConfig{Entities: 150, Types: 8, Seed: 5}), opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		g := cur.Graph()
		d := kg.NewDelta(g)
		v := kg.NodeID(rng.Intn(g.NumNodes()))
		if s%2 == 0 {
			nv, err := d.AddEntity("Startup", vocab[rng.Intn(len(vocab))])
			if err != nil {
				t.Fatal(err)
			}
			if g.Type(v) != kg.LiteralType {
				if err := d.AddAttr(nv, "funds", v); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := d.SetText(v, vocab[rng.Intn(len(vocab))]); err != nil {
			t.Fatal(err)
		}
		ch, err := d.Apply()
		if err != nil {
			t.Fatal(err)
		}
		next, ds, err := cur.ApplyDelta(ch, opts)
		if err != nil {
			t.Fatal(err)
		}
		touched := map[string]bool{}
		for _, w := range ds.TouchedWords {
			touched[w] = true
		}
		fresh := map[*prCell]bool{}
		for w := range next.words {
			nu := &next.words[w]
			if nu.n == 0 {
				continue
			}
			word := next.dict.Word(text.WordID(w))
			var parent *prCell
			if w < len(cur.words) {
				parent = cur.words[w].prc
			}
			carried := parent != nil && !touched[word]
			if (nu.prc == parent) != carried {
				t.Fatalf("step %d: word %q (carried %v) keeps its parent's cell: %v", s, word, carried, !carried)
			}
			if !carried {
				if fresh[nu.prc] {
					t.Fatalf("step %d: spliced word %q shares a fresh cell", s, word)
				}
				fresh[nu.prc] = true
			}
		}
		if len(fresh) == 0 {
			t.Fatalf("step %d: no word was spliced", s)
		}
		cur = next
	}

	words := make([]wordIndex, 1<<14)
	for w := range words {
		words[w].n, words[w].prc = 1, new(prCell)
	}
	words[3].prc, words[9000].prc = nil, nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bindPR(words, uniformPR, false)
	runtime.ReadMemStats(&after)
	if words[3].prc == nil || words[9000].prc == nil {
		t.Fatal("a spliced word got no cell")
	}
	// A slab would take len(words) cells, 384 KiB; the margin absorbs
	// allocations by the runtime's own goroutines.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("binding 2 spliced words of %d allocated %d bytes", len(words), grew)
	}
}
