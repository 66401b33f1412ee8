// Package core implements the paper's central model (Section 2.2): path
// patterns, tree patterns, valid subtrees, the class of relevance scoring
// functions, top-k selection, and the composition of tree patterns into
// table answers.
package core

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"kbtable/internal/kg"
)

// PatternID interns a path pattern. IDs are dense per PatternTable.
type PatternID int32

// PathPattern is the type sequence of a root-to-keyword path (Section
// 2.2.2): τ(v1) α(e1) τ(v2) … . If the keyword matched a node, the pattern
// ends with that node's type (len(Attrs) = len(Types)-1). If it matched an
// edge's attribute type, the pattern ends with that attribute
// (EdgeEnd = true, len(Attrs) = len(Types)).
type PathPattern struct {
	Types   []kg.TypeID
	Attrs   []kg.AttrID
	EdgeEnd bool
}

// Len is the pattern length |pattern(T(w))|: the number of nodes on the
// path T(w). Per the paper's Example 2.4 (score1(T1) = 2+1+2+3 where the
// edge-matched "revenue" path contributes 3), an edge match counts the
// matched edge's target node, so Len is uniformly #attrs + 1: for a node
// match this equals len(Types); for an edge match it is len(Types)+1.
func (p PathPattern) Len() int { return len(p.Attrs) + 1 }

// RootType returns τ(v1), the type of the path's root.
func (p PathPattern) RootType() kg.TypeID { return p.Types[0] }

// Key returns a compact binary key uniquely identifying the pattern,
// suitable as a map key.
func (p PathPattern) Key() string {
	var sb strings.Builder
	sb.Grow(len(p.Types)*4 + len(p.Attrs)*4 + 1)
	var buf [4]byte
	if p.EdgeEnd {
		sb.WriteByte(1)
	} else {
		sb.WriteByte(0)
	}
	for i, t := range p.Types {
		binary.LittleEndian.PutUint32(buf[:], uint32(t))
		sb.Write(buf[:])
		if i < len(p.Attrs) {
			binary.LittleEndian.PutUint32(buf[:], uint32(p.Attrs[i]))
			sb.Write(buf[:])
		}
	}
	return sb.String()
}

// Render prints the pattern in the paper's notation, e.g.
// "(Software) (Developer) (Company) (Revenue)".
func (p PathPattern) Render(g *kg.Graph) string {
	var sb strings.Builder
	for i, t := range p.Types {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString("(" + g.TypeName(t) + ")")
		if i < len(p.Attrs) {
			sb.WriteString(" (" + g.AttrName(p.Attrs[i]) + ")")
		}
	}
	return sb.String()
}

// PatternTable interns path patterns to dense PatternIDs. It is safe for
// concurrent use: Intern serializes writers behind a mutex (parallel index
// construction and the baseline's online search intern from several
// workers), while Get, Len, Snapshot and TreePattern.CompareContent are
// lock-free reads of an append-only slice that Intern republishes
// atomically — a reader sees a prefix of the table, never a torn entry, and
// an ID it already holds stays readable while others intern.
//
// A published index's table is never interned into (index.ApplyDelta
// interns into a Fork, the baseline into a table of its own, and the shard
// gather resolves remote patterns with Lookup),
// so on the query path the table is immutable and every read is two plain
// loads with no shared cache line written.
type PatternTable struct {
	mu     sync.RWMutex // guards byKey and serializes publication of pats
	byKey  map[string]PatternID
	pats   atomic.Pointer[[]tableEntry]
	forked bool // byKey is the parent's (Fork): copy before writing
}

// tableEntry is one interned pattern with its Key, computed once at Intern
// so content comparisons read stored strings.
type tableEntry struct {
	pat PathPattern
	key string
}

// NewPatternTable returns an empty table.
func NewPatternTable() *PatternTable {
	t := &PatternTable{byKey: make(map[string]PatternID)}
	t.pats.Store(new([]tableEntry))
	return t
}

// Intern returns the ID for p, registering it if new. The caller must not
// mutate p's slices afterwards.
func (t *PatternTable) Intern(p PathPattern) PatternID {
	key := p.Key()
	t.mu.RLock()
	id, ok := t.byKey[key]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byKey[key]; ok {
		return id
	}
	if t.forked {
		t.byKey, t.forked = maps.Clone(t.byKey), false
	}
	// Appending never rewrites an element a reader can reach: a reader
	// holding the previous header only indexes below its length.
	pats := append(*t.pats.Load(), tableEntry{pat: p, key: key})
	id = PatternID(len(pats) - 1)
	t.byKey[key] = id
	t.pats.Store(&pats)
	return id
}

// Lookup returns the ID of an already interned pattern with p's content,
// and false when there is none; it never registers p.
func (t *PatternTable) Lookup(p PathPattern) (PatternID, bool) {
	t.mu.RLock()
	id, ok := t.byKey[p.Key()]
	t.mu.RUnlock()
	return id, ok
}

// Get returns the pattern for id. The returned value shares slices with the
// table and must be treated as read-only.
func (t *PatternTable) Get(id PatternID) PathPattern {
	return (*t.pats.Load())[id].pat
}

// Len returns the number of interned patterns.
func (t *PatternTable) Len() int { return len(*t.pats.Load()) }

// Snapshot returns a copy of all interned patterns in ID order (for index
// persistence).
func (t *PatternTable) Snapshot() []PathPattern {
	pats := *t.pats.Load()
	out := make([]PathPattern, len(pats))
	for i := range pats {
		p := &pats[i].pat
		out[i] = PathPattern{
			Types:   append([]kg.TypeID(nil), p.Types...),
			Attrs:   append([]kg.AttrID(nil), p.Attrs...),
			EdgeEnd: p.EdgeEnd,
		}
	}
	return out
}

// Fork returns a table with t's IDs sharing t's entries (clipped, so the
// fork's first append reallocates) and key map until its first new
// pattern. t may be forked again but must not be interned into.
func (t *PatternTable) Fork() *PatternTable {
	pats := slices.Clip(*t.pats.Load())
	f := &PatternTable{byKey: t.byKey, forked: true}
	f.pats.Store(&pats)
	return f
}

// TableFromSnapshot reconstructs a PatternTable with identical IDs from a
// Snapshot.
func TableFromSnapshot(pats []PathPattern) *PatternTable {
	t := NewPatternTable()
	for _, p := range pats {
		t.Intern(p)
	}
	return t
}

// TreePattern is the answer unit of the paper: a vector with the i-th entry
// the path pattern of the root-leaf path containing keyword wi (Equation 1).
// All member path patterns share the same root type.
type TreePattern struct {
	Paths []PatternID
}

// Key returns a map key uniquely identifying the tree pattern.
func (tp TreePattern) Key() string {
	var sb strings.Builder
	sb.Grow(len(tp.Paths) * 4)
	var buf [4]byte
	for _, p := range tp.Paths {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		sb.Write(buf[:])
	}
	return sb.String()
}

// ContentKey returns a key derived from the path patterns' contents rather
// than their interned IDs: the keys the table stored at Intern, each
// behind its 2-byte little-endian length. It is the order CompareContent
// reproduces without building a string. Only the experiment harness
// (internal/bench, which files patterns in maps across runs) and tests
// call it; ranking, the shard gather and pattern counting compare
// content instead.
func (tp TreePattern) ContentKey(t *PatternTable) string {
	pats := *t.pats.Load()
	n := 0
	for _, p := range tp.Paths {
		n += 2 + len(pats[p].key)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, p := range tp.Paths {
		k := pats[p].key
		sb.WriteByte(byte(len(k)))
		sb.WriteByte(byte(len(k) >> 8))
		sb.WriteString(k)
	}
	return sb.String()
}

// CompareContent orders tp, interned in t, against o, interned in ot, as
// their ContentKey strings compare, without building either: segment by
// segment (segments are prefix-free), each by its little-endian length
// prefix, low byte first, then by its path key.
func (tp TreePattern) CompareContent(t *PatternTable, o TreePattern, ot *PatternTable) int {
	pa, pb := *t.pats.Load(), *ot.pats.Load()
	for i := range min(len(tp.Paths), len(o.Paths)) {
		ka, kb := pa[tp.Paths[i]].key, pb[o.Paths[i]].key
		if c := cmp.Or(cmp.Compare(byte(len(ka)), byte(len(kb))), cmp.Compare(byte(len(ka)>>8), byte(len(kb)>>8)), strings.Compare(ka, kb)); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(tp.Paths), len(o.Paths))
}

// RootType returns the shared root type of the pattern's paths.
func (tp TreePattern) RootType(t *PatternTable) kg.TypeID {
	return t.Get(tp.Paths[0]).RootType()
}

// Height returns H(pattern): the maximum path-pattern length (Section 2.2.2).
func (tp TreePattern) Height(t *PatternTable) int {
	h := 0
	for _, p := range tp.Paths {
		if l := t.Get(p).Len(); l > h {
			h = l
		}
	}
	return h
}

// Render prints the tree pattern as one line per keyword path.
func (tp TreePattern) Render(g *kg.Graph, t *PatternTable, keywords []string) string {
	var sb strings.Builder
	for i, p := range tp.Paths {
		if i > 0 {
			sb.WriteByte('\n')
		}
		kw := ""
		if i < len(keywords) {
			kw = keywords[i]
		}
		sb.WriteString(kw + ": " + t.Get(p).Render(g))
	}
	return sb.String()
}
