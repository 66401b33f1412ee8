package index

import (
	"fmt"
	"slices"

	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// wordSim is one word occurring in a piece of text together with the
// precomputed Jaccard similarity sim(w, text) of score3.
type wordSim struct {
	Word text.WordID
	Sim  float64
}

// Corpus is one epoch's tokenized corpus: the dictionary that numbers its
// words, and the canonical words (with sim(w, text)) of every type name,
// attribute name and node text — the associative array node → (word, sim)
// that Algorithm 1 files postings from. It is the one place this package
// tokenizes: NewCorpus builds it for a graph, Extend adds one update's
// words, and Build and ApplyDelta only read it, so every shard of an
// engine epoch shares one. A Corpus is immutable once built.
type Corpus struct {
	g    *kg.Graph
	dict *text.Dict

	typeWords [][]wordSim
	attrWords [][]wordSim
	nodeWords [][]wordSim
}

// NewCorpus tokenizes g into a new dictionary: the synonyms, by alias, then
// the words of g's type names, attribute names and node texts in ID order.
// Two builds of one graph (a coordinator and its owner nodes) number words
// alike.
func NewCorpus(g *kg.Graph, synonyms map[string]string) *Corpus {
	d := text.NewDict()
	aliases := make([]string, 0, len(synonyms))
	for alias := range synonyms {
		aliases = append(aliases, alias)
	}
	slices.Sort(aliases)
	for _, alias := range aliases {
		d.AddSynonym(alias, synonyms[alias])
	}
	return tokenize(g, d)
}

// CorpusOf tokenizes g against d, the dictionary decoded with g's index
// snapshot. It fails if g holds a word d lacks: such a snapshot's
// dictionary does not cover its graph. The corpus reads d itself.
func CorpusOf(g *kg.Graph, d *text.Dict) (*Corpus, error) {
	c := tokenize(g, d.Fork())
	if c.dict.Len() != d.Len() {
		return nil, fmt.Errorf("index: corpus word %q is not in the dictionary", c.dict.Word(text.WordID(d.Len())))
	}
	c.dict = d
	return c, nil
}

// tokenize builds g's corpus, interning into d the words of g's type
// names, attribute names and node texts in ID order.
func tokenize(g *kg.Graph, d *text.Dict) *Corpus {
	c := &Corpus{g: g, dict: d, nodeWords: make([][]wordSim, g.NumNodes())}
	c.addTypesAndAttrs()
	for v := range c.nodeWords {
		c.nodeWords[v] = c.node(kg.NodeID(v))
	}
	return c
}

// Extend is the corpus of ch.New, ch being a change of c's graph: c's
// dictionary forked, then the words of the change's new type names, new
// attribute names and touched node texts (ascending) interned in that
// order, so every shard and replica agrees. Node IDs are stable (a removed
// node is a touched tombstone), so only touched nodes are tokenized again
// and every other node shares c's list. c stays valid.
func (c *Corpus) Extend(ch *kg.Changed) *Corpus {
	nc := &Corpus{g: ch.New, dict: c.dict.Fork(), typeWords: slices.Clip(c.typeWords), attrWords: slices.Clip(c.attrWords)}
	nc.addTypesAndAttrs()
	nc.nodeWords = make([][]wordSim, ch.New.NumNodes())
	copy(nc.nodeWords, c.nodeWords)
	for _, v := range ch.Touched {
		nc.nodeWords[v] = nc.node(v)
	}
	return nc
}

// Dict returns the corpus dictionary (read-only).
func (c *Corpus) Dict() *text.Dict { return c.dict }

// addTypesAndAttrs tokenizes the type and attribute names c has no list
// for yet: all of them for a new corpus, a change's new ones on Extend
// (names never change, and both tables only grow).
func (c *Corpus) addTypesAndAttrs() {
	for t := len(c.typeWords); t < c.g.NumTypes(); t++ {
		var ws []wordSim
		// Dummy text entities have their type omitted (Section 2.1 /
		// Example 2.1); the reserved type's display name is not searchable
		// text.
		if kg.TypeID(t) != kg.LiteralType {
			ws = c.sims(c.g.TypeName(kg.TypeID(t)), 0)
		}
		c.typeWords = append(c.typeWords, ws)
	}
	for a := len(c.attrWords); a < c.g.NumAttrs(); a++ {
		c.attrWords = append(c.attrWords, c.sims(c.g.AttrName(kg.AttrID(a)), 0))
	}
}

// node tokenizes v's words: those of its own text and of its type's text;
// when a word appears in both, the higher similarity is kept ("appears in
// the text description of a node or node type", condition ii).
func (c *Corpus) node(v kg.NodeID) []wordSim {
	typ := c.typeWords[c.g.Type(v)]
	own := c.sims(c.g.Text(v), len(typ))
	if len(own) == 0 {
		return typ // lists are never written once built
	}
	for _, ws := range typ {
		if i := slices.IndexFunc(own, func(o wordSim) bool { return o.Word == ws.Word }); i >= 0 {
			own[i].Sim = max(own[i].Sim, ws.Sim)
		} else {
			own = append(own, ws)
		}
	}
	return own
}

// sims canonicalizes the token set of s, interning new words, and attaches
// sim = 1/|tokens|, the Jaccard similarity between any single contained
// word and s; the list has room for spare more.
func (c *Corpus) sims(s string, spare int) []wordSim {
	toks := text.TokenSet(s)
	if len(toks) == 0 {
		return nil
	}
	sim := 1.0 / float64(len(toks))
	out := make([]wordSim, 0, len(toks)+spare)
	for _, t := range toks {
		id := c.dict.Canonical(c.dict.Intern(t))
		if !slices.ContainsFunc(out, func(o wordSim) bool { return o.Word == id }) {
			out = append(out, wordSim{Word: id, Sim: sim})
		}
	}
	return out
}
