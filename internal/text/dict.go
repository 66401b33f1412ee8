package text

import (
	"fmt"
	"maps"
	"slices"
)

// WordID identifies a distinct surface word in a Dict. IDs are dense and
// start at 0, so they can index into per-word slices (e.g. the path index
// keeps one posting list per WordID).
type WordID int32

// NoWord is returned by Lookup when a word is unknown.
const NoWord WordID = -1

// Dict interns words to dense WordIDs and maintains the stem / synonym
// normal forms that Section 3 of the paper requires ("every word has its
// stemmed version and synonyms in our index pointing to the same
// path-pattern entry").
//
// Dict is not safe for concurrent mutation; build it single-threaded (or
// behind the index builder's lock) and read it freely afterwards.
type Dict struct {
	ids   map[string]WordID
	words []string
	// stemOf[id] is the WordID of the stemmed form of word id (possibly id
	// itself). Posting lists are keyed by stem IDs plus synonym aliases.
	stemOf []WordID
	// synonyms maps a word ID to the canonical ID whose postings it shares.
	synonyms map[WordID]WordID
	forked   bool // ids and synonyms are the parent's (Fork): copy before writing
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]WordID), synonyms: make(map[WordID]WordID)}
}

// Intern returns the WordID for w, creating it if necessary. The stemmed
// form of w is interned as well so that query-time stemming always lands on
// a known ID.
//
// Invariant: stemOf[x] is always a terminal ID (stemOf[t] == t). Porter
// stems are not fixpoints of Stem ("databases" → "databas" → "databa"), so
// stem entries are registered as terminal rather than re-stemmed; corpus
// and query words then normalize identically with a single hop.
func (d *Dict) Intern(w string) WordID {
	if id, ok := d.ids[w]; ok {
		return id
	}
	id := d.newEntry(w)
	if st := Stem(w); st != w {
		d.stemOf[id] = d.internStem(st)
	}
	return id
}

// internStem interns s as a terminal stem and returns the terminal ID its
// postings live under.
func (d *Dict) internStem(s string) WordID {
	if id, ok := d.ids[s]; ok {
		return d.stemOf[id]
	}
	return d.newEntry(s)
}

// newEntry registers w with stemOf pointing at itself.
func (d *Dict) newEntry(w string) WordID {
	d.own()
	id := WordID(len(d.words))
	d.ids[w] = id
	d.words = append(d.words, w)
	d.stemOf = append(d.stemOf, id)
	return id
}

// Fork returns a dictionary with d's IDs that shares d's tables until its
// first new word or synonym (words and stemOf are clipped, so appends
// reallocate). d itself must not be written afterwards.
func (d *Dict) Fork() *Dict {
	return &Dict{ids: d.ids, words: slices.Clip(d.words), stemOf: slices.Clip(d.stemOf), synonyms: d.synonyms, forked: true}
}

// own copies a fork's maps before its first write.
func (d *Dict) own() {
	if d.forked {
		d.ids, d.synonyms, d.forked = maps.Clone(d.ids), maps.Clone(d.synonyms), false
	}
}

// Lookup returns the WordID of w, or NoWord if w was never interned.
func (d *Dict) Lookup(w string) WordID {
	if id, ok := d.ids[w]; ok {
		return id
	}
	return NoWord
}

// Word returns the surface string for id.
func (d *Dict) Word(id WordID) string { return d.words[id] }

// Canonical resolves id through synonym aliasing and stemming to the ID
// under which postings are stored: synonyms first, then stem.
func (d *Dict) Canonical(id WordID) WordID {
	if c, ok := d.synonyms[id]; ok {
		id = c
	}
	return d.stemOf[id]
}

// AddSynonym declares that alias shares the postings of canonical. Both
// words are interned. Chains are flattened at registration time.
func (d *Dict) AddSynonym(alias, canonical string) {
	a := d.Intern(alias)
	c := d.Intern(canonical)
	if cc, ok := d.synonyms[c]; ok {
		c = cc
	}
	if a == c {
		return
	}
	d.own()
	d.synonyms[a] = c
}

// Len returns the number of interned words.
func (d *Dict) Len() int { return len(d.words) }

// QueryTokens tokenizes a query and maps tokens to canonical WordIDs without
// interning: unknown words map to NoWord (the query then has no answers for
// that keyword). The returned surface slice is parallel to the IDs.
func (d *Dict) QueryTokens(q string) (ids []WordID, surfaces []string) {
	for _, t := range Tokenize(q) {
		id := d.Lookup(t)
		if id == NoWord {
			// Try the stemmed form: "cities" should reach "citi" postings
			// even if the surface word never occurred in the corpus.
			id = d.Lookup(Stem(t))
		}
		if id != NoWord {
			id = d.Canonical(id)
		}
		ids = append(ids, id)
		surfaces = append(surfaces, t)
	}
	return ids, surfaces
}

// Snapshot is the serializable state of a Dict (for index persistence).
type Snapshot struct {
	Words    []string
	StemOf   []WordID
	Synonyms map[WordID]WordID
}

// Snapshot captures the dictionary state. The returned slices/maps are
// copies; mutating them does not affect the dictionary.
func (d *Dict) Snapshot() Snapshot {
	s := Snapshot{
		Words:    append([]string(nil), d.words...),
		StemOf:   append([]WordID(nil), d.stemOf...),
		Synonyms: make(map[WordID]WordID, len(d.synonyms)),
	}
	for k, v := range d.synonyms {
		s.Synonyms[k] = v
	}
	return s
}

// FromSnapshot reconstructs a Dict captured by Snapshot.
func FromSnapshot(s Snapshot) (*Dict, error) {
	if len(s.Words) != len(s.StemOf) {
		return nil, fmt.Errorf("text: snapshot words/stems length mismatch: %d vs %d", len(s.Words), len(s.StemOf))
	}
	d := NewDict()
	d.words = append([]string(nil), s.Words...)
	d.stemOf = append([]WordID(nil), s.StemOf...)
	for i, w := range d.words {
		d.ids[w] = WordID(i)
	}
	for i, st := range d.stemOf {
		if st < 0 || int(st) >= len(d.words) {
			return nil, fmt.Errorf("text: snapshot stem %d of word %d out of range", st, i)
		}
	}
	for k, v := range s.Synonyms {
		if int(k) >= len(d.words) || int(v) >= len(d.words) || k < 0 || v < 0 {
			return nil, fmt.Errorf("text: snapshot synonym %d->%d out of range", k, v)
		}
		d.synonyms[k] = v
	}
	return d, nil
}
