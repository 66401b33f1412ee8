package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"kbtable"
	"kbtable/internal/dataset"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// corpus is one generated knowledge base: the graph, its .kb bytes, and
// the name pools the generated queries and updates draw from.
type corpus struct {
	g        *kg.Graph
	kb       []byte
	sha      string
	vocab    []string // distinct tokens, first-occurrence order
	types    []string // entity type names, the reserved literal type excluded
	attrs    []string
	entities []kg.NodeID // non-literal nodes, ascending
}

// corpusSeed fixes the knowledge base: the benchmark's -seed draws the
// queries, the operation sequences and the updates, not the corpus. Ten
// corpora from ten seeds differ by more than any bound the benchmark could
// set (throughput by +-30 %, snapshot size by +-10 %), because SynthWiki
// draws its schema, whose few head types decide the cost of everything,
// from the same seed as its entities.
const corpusSeed = 1

func newCorpus(entities, types int) (*corpus, error) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: entities, Types: types, Seed: corpusSeed})
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encode corpus: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	c := &corpus{g: g, kb: buf.Bytes(), sha: hex.EncodeToString(sum[:])}
	seen := map[string]bool{}
	add := func(s string) {
		for _, t := range text.Tokenize(s) {
			if !seen[t] {
				seen[t] = true
				c.vocab = append(c.vocab, t)
			}
		}
	}
	for t := 0; t < g.NumTypes(); t++ {
		if kg.TypeID(t) != kg.LiteralType {
			c.types = append(c.types, g.TypeName(kg.TypeID(t)))
		}
		add(g.TypeName(kg.TypeID(t)))
	}
	for a := 0; a < g.NumAttrs(); a++ {
		c.attrs = append(c.attrs, g.AttrName(kg.AttrID(a)))
		add(g.AttrName(kg.AttrID(a)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.Type(kg.NodeID(v)) != kg.LiteralType {
			c.entities = append(c.entities, kg.NodeID(v))
		}
		add(g.Text(kg.NodeID(v)))
	}
	return c, nil
}

// graph writes the .kb bytes under dir and loads them through the public
// facade, the way kbserve receives a corpus.
func (c *corpus) graph(dir string) (*kbtable.Graph, error) {
	path := dir + "/corpus.kb"
	if err := os.WriteFile(path, c.kb, 0o644); err != nil {
		return nil, err
	}
	return kbtable.LoadGraph(path)
}

// keywordQuery harvests m keywords from random walks of at most two edges
// out of one random root, so most queries have valid subtrees; one keyword
// in five queries is drawn from the whole vocabulary instead, which makes
// some queries selective or empty. It is dataset.Workload's recipe with
// the vocabulary computed once per corpus instead of once per query
// (dataset.Workload takes 19 s for 3000 queries at this scale).
func (c *corpus) keywordQuery(rng *rand.Rand, m int) string {
	g := c.g
	root := kg.NodeID(rng.Intn(g.NumNodes()))
	for tries := 0; tries < 10 && g.OutDegree(root) == 0; tries++ {
		root = kg.NodeID(rng.Intn(g.NumNodes()))
	}
	seen := map[string]bool{}
	var words []string
	add := func(w string) {
		if w != "" && !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	randomAt := -1
	if rng.Float64() < 0.2 {
		randomAt = rng.Intn(m)
	}
	for i := 0; len(words) < m && i < m*8; i++ {
		if len(words) == randomAt {
			add(c.vocab[rng.Intn(len(c.vocab))])
			continue
		}
		cur, lastAttr := root, ""
		for s, steps := 0, rng.Intn(3); s < steps && g.OutDegree(cur) > 0; s++ {
			first, n := g.OutEdges(cur)
			e := g.Edge(first + kg.EdgeID(rng.Intn(n)))
			lastAttr, cur = g.AttrName(e.Attr), e.Dst
		}
		src := g.Text(cur)
		switch rng.Intn(3) {
		case 1:
			src = g.TypeName(g.Type(cur))
		case 2:
			if lastAttr != "" {
				src = lastAttr
			}
		}
		if toks := text.Tokenize(src); len(toks) > 0 {
			add(toks[rng.Intn(len(toks))])
		}
	}
	for i := 0; len(words) < m && i < m*8; i++ {
		add(c.vocab[rng.Intn(len(c.vocab))])
	}
	return strings.Join(words, " ")
}

// frontierBuckets are the upper bounds of the strata the query pool is
// drawn from: a query's bucket is the first bound its valid-subtree count
// (PlanInfo.Frontier) does not exceed; bucket 0 holds the queries with no
// answer. Queries above the last bound are dropped.
var frontierBuckets = []int64{0, 100, 1_000, 10_000, 30_000, 100_000, 300_000}

func frontierBucket(frontier int64) int {
	for b, hi := range frontierBuckets {
		if frontier <= hi {
			return b
		}
	}
	return -1
}

// poolQuery is one query of the pool with its valid-subtree count.
type poolQuery struct {
	text     string
	frontier int64
}

// buildPool generates candidate queries (perM for each keyword count 1..6),
// de-duplicates them after kbtable.NormalizeQuery, shuffles them, and keeps
// the first quota[b] of each frontier bucket in that order. Both filters
// are properties of the data, not of an executor: the frontier cap drops
// the few queries that alone would be most of a run (one unfiltered query
// of 3000 was 29 % of total search time at the seed commit), and the
// per-bucket quotas give every seed the same mix of light and heavy
// queries, so that throughput compares across seeds. The buckets are then
// interleaved in proportion to their sizes, so that every prefix of the
// pool (a hot set, the oracle's sample) has that same mix.
func buildPool(ctx context.Context, c *corpus, planner *kbtable.Engine, perM int, quota []int, seed int64) ([]poolQuery, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var cands []string
	for m := 1; m <= 6; m++ {
		for i := 0; i < perM; i++ {
			q := kbtable.NormalizeQuery(c.keywordQuery(rng, m))
			if q != "" && !seen[q] {
				seen[q] = true
				cands = append(cands, q)
			}
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	buckets := make([][]poolQuery, len(quota))
	total := 0
	for _, q := range cands {
		pi, err := planner.Plan(ctx, q, searchOptions)
		if err != nil {
			return nil, fmt.Errorf("plan %q: %w", q, err)
		}
		if b := frontierBucket(pi.Frontier); b >= 0 && len(buckets[b]) < quota[b] {
			buckets[b] = append(buckets[b], poolQuery{q, pi.Frontier})
			total++
		}
	}
	pool := make([]poolQuery, 0, total)
	taken := make([]int, len(buckets))
	for i := 0; i < total; i++ {
		// The bucket furthest behind its share of the first i+1 places.
		best, bestLag := -1, 0.0
		for b := range buckets {
			lag := float64(len(buckets[b]))*float64(i+1)/float64(total) - float64(taken[b])
			if taken[b] < len(buckets[b]) && (best < 0 || lag > bestLag) {
				best, bestLag = b, lag
			}
		}
		pool = append(pool, buckets[best][taken[best]])
		taken[best]++
	}
	return pool, nil
}

// opKind says what one pre-drawn operation does.
type opKind uint8

const (
	opSearch  opKind = iota
	opAdd            // add an entity with two text attributes
	opSetText        // re-text an entity this client added earlier
)

// op is one pre-drawn operation of a client's sequence.
type op struct {
	kind  opKind
	query int32 // opSearch: index into the workload's query list
	// opAdd: entity type and text, then two (attribute, value) pairs.
	// opSetText: words[0] is the new text and nth selects the client's
	// nth earlier add (modulo the adds done so far).
	words []string
	nth   int32
}

// cyclicOps is n searches walking the first span queries in order from
// offset start, wrapping around.
func cyclicOps(n, span, start int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opSearch, query: int32((start + i) % span)}
	}
	return ops
}

// hotQuery draws the i-th search of a skewed sequence over hot queries: a
// Zipf rank ahead of a hot spot that moves on by one query per operation.
// Recent queries are favoured, as Zipf favours them, but over a few
// hundred operations every query is the hot spot once, so a run's
// latencies do not depend on which queries drew the first ranks.
func hotQuery(z *rand.Zipf, i, hot int) int32 {
	return int32((int(z.Uint64()) + i) % hot)
}

func hotOps(rng *rand.Rand, n, hot int) []op {
	z := rand.NewZipf(rng, 1.2, 1, uint64(hot-1))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opSearch, query: hotQuery(z, i, hot)}
	}
	return ops
}

func (c *corpus) words(rng *rand.Rand, n int) string {
	w := make([]string, n)
	for i := range w {
		w[i] = c.vocab[rng.Intn(len(c.vocab))]
	}
	return strings.Join(w, " ")
}

// addWords draws an opAdd's entity type, text, and two text attributes.
func (c *corpus) addWords(rng *rand.Rand) []string {
	return []string{
		c.types[rng.Intn(len(c.types))], c.words(rng, 2),
		c.attrs[rng.Intn(len(c.attrs))], c.words(rng, 2),
		c.attrs[rng.Intn(len(c.attrs))], c.words(rng, 1),
	}
}

// mixedBlock is the operation mix of mixed_rw, dealt in blocks so that
// every client sends exactly this mix whatever the seed: 85 % searches
// over hot queries and 15 % updates. Two updates in three add an entity
// (a structural change, which moves PageRank and flushes every cache) and
// one re-texts an entity the same client added (a text-only change,
// invalidated word-precisely).
var mixedBlock = func() []opKind {
	b := make([]opKind, 20)
	b[0], b[1], b[2] = opAdd, opAdd, opSetText
	return b
}()

// mixedOps is n operations: mixedBlock after mixedBlock, each shuffled.
func mixedOps(rng *rand.Rand, c *corpus, n, hot int) []op {
	z := rand.NewZipf(rng, 1.2, 1, uint64(hot-1))
	ops := make([]op, n)
	block := append([]opKind(nil), mixedBlock...)
	adds := 0
	for i := range ops {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		switch kind := block[i%len(block)]; {
		case kind == opSearch:
			ops[i] = op{kind: opSearch, query: hotQuery(z, i, hot)}
		case kind == opAdd || adds == 0:
			ops[i] = op{kind: opAdd, words: c.addWords(rng)}
			adds++
		default:
			ops[i] = op{kind: opSetText, words: []string{c.words(rng, 2)}, nth: int32(rng.Intn(adds))}
		}
	}
	return ops
}

// update renders an operation as the request it sends; added are the
// entities this client's earlier opAdd operations created.
func (o op) update(added []int64) kbtable.Update {
	var u kbtable.Update
	switch o.kind {
	case opAdd:
		ref := u.AddEntity(o.words[0], o.words[1])
		u.AddTextAttr(ref, o.words[2], o.words[3])
		u.AddTextAttr(ref, o.words[4], o.words[5])
	case opSetText:
		u.SetText(added[int(o.nth)%len(added)], o.words[0])
	}
	return u
}

// tailUpdates are the updates every set-up logs after its checkpoint, so
// that recovery replays a WAL suffix: structural ones first (an entity
// with a text attribute and an edge to an existing entity), then one
// re-text per added entity slot. Like the corpus they do not follow the
// benchmark's seed: they are part of the state every run starts from.
func (c *corpus) tailUpdates(structural, retexts int) []kbtable.Update {
	rng := rand.New(rand.NewSource(corpusSeed))
	firstNew := int64(c.g.NumNodes())
	var out []kbtable.Update
	for i := 0; i < structural; i++ {
		var u kbtable.Update
		w := c.addWords(rng)
		ref := u.AddEntity(w[0], w[1])
		u.AddTextAttr(ref, w[2], w[3])
		u.AddAttr(ref, w[4], int64(c.entities[rng.Intn(len(c.entities))]))
		out = append(out, u)
	}
	for i := 0; i < retexts; i++ {
		var u kbtable.Update
		// Each structural update appends two nodes: the entity, then its
		// text-attribute literal.
		u.SetText(firstNew+2*int64(i%structural), c.words(rng, 2))
		out = append(out, u)
	}
	return out
}

// fingerprint is the sha256 of an input, so that two result files can be
// shown to have measured the same inputs.
func fingerprint(write func(w *bytes.Buffer)) string {
	var b bytes.Buffer
	write(&b)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

func poolFingerprint(pool []string) string {
	return fingerprint(func(b *bytes.Buffer) {
		for _, q := range pool {
			b.WriteString(q)
			b.WriteByte('\n')
		}
	})
}

func opsFingerprint(ops []op) string {
	return fingerprint(func(b *bytes.Buffer) {
		var n [8]byte
		for _, o := range ops {
			b.WriteByte(byte(o.kind))
			binary.LittleEndian.PutUint32(n[:4], uint32(o.query))
			binary.LittleEndian.PutUint32(n[4:], uint32(o.nth))
			b.Write(n[:])
			for _, w := range o.words {
				b.WriteString(w)
				b.WriteByte(0)
			}
		}
	})
}
