package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"kbtable/internal/kg"
)

// genPattern turns arbitrary quick-generated bytes into a valid
// PathPattern: k+1 types, k attrs (or k types, k attrs when edge-ending).
func genPattern(types []uint8, attrs []uint8, edgeEnd bool) (PathPattern, bool) {
	k := len(attrs)
	if k > 6 {
		k = 6
	}
	needTypes := k + 1
	if edgeEnd {
		if k == 0 {
			return PathPattern{}, false
		}
		needTypes = k
	}
	if len(types) < needTypes {
		return PathPattern{}, false
	}
	p := PathPattern{EdgeEnd: edgeEnd}
	for i := 0; i < needTypes; i++ {
		p.Types = append(p.Types, kg.TypeID(types[i]%8))
	}
	for i := 0; i < k; i++ {
		p.Attrs = append(p.Attrs, kg.AttrID(attrs[i]%8))
	}
	return p, true
}

func patternsEqual(a, b PathPattern) bool {
	if a.EdgeEnd != b.EdgeEnd || len(a.Types) != len(b.Types) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			return false
		}
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	return true
}

// TestPathPatternKeyInjective: Key() collides exactly when the patterns
// are equal (testing/quick over random pattern pairs).
func TestPathPatternKeyInjective(t *testing.T) {
	f := func(t1, a1, t2, a2 []uint8, e1, e2 bool) bool {
		p1, ok1 := genPattern(t1, a1, e1)
		p2, ok2 := genPattern(t2, a2, e2)
		if !ok1 || !ok2 {
			return true
		}
		return (p1.Key() == p2.Key()) == patternsEqual(p1, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPatternTableInternBijective: interning random patterns always
// returns the same ID for equal patterns and distinct IDs otherwise.
func TestPatternTableInternBijective(t *testing.T) {
	pt := NewPatternTable()
	f := func(t1, a1 []uint8, e1 bool) bool {
		p, ok := genPattern(t1, a1, e1)
		if !ok {
			return true
		}
		id1 := pt.Intern(p)
		id2 := pt.Intern(p)
		if id1 != id2 {
			return false
		}
		// The stored pattern round-trips.
		return patternsEqual(pt.Get(id1), p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Distinctness: count of interned patterns equals distinct keys seen.
	seen := map[string]bool{}
	for i := 0; i < pt.Len(); i++ {
		k := pt.Get(PatternID(i)).Key()
		if seen[k] {
			t.Fatalf("two IDs share one key")
		}
		seen[k] = true
	}
}

// TestTreePatternKeyInjective: tree-pattern keys collide exactly when the
// ID vectors match.
func TestTreePatternKeyInjective(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 || len(a) > 10 || len(b) > 10 {
			return true
		}
		mk := func(r []uint8) TreePattern {
			tp := TreePattern{}
			for _, v := range r {
				tp.Paths = append(tp.Paths, PatternID(v%16))
			}
			return tp
		}
		ta, tb := mk(a), mk(b)
		equal := len(ta.Paths) == len(tb.Paths)
		if equal {
			for i := range ta.Paths {
				if ta.Paths[i] != tb.Paths[i] {
					equal = false
					break
				}
			}
		}
		return (ta.Key() == tb.Key()) == equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCompareContentMatchesContentKey: over random tree patterns interned
// into two independent tables (different IDs for the same content), the
// sign of CompareContent is strings.Compare of the two ContentKeys. The
// pool holds paths whose keys are 1, 253, 257 and 261 bytes long: a key's
// 2-byte length prefix is little-endian, so 1 and 257 differ only in the
// high byte, 257 and 261 only in the low byte, and 257 sorts before 253.
func TestCompareContentMatchesContentKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	long := func(types, attrs int, edgeEnd bool) PathPattern {
		p := PathPattern{EdgeEnd: edgeEnd}
		for i := 0; i < types; i++ {
			p.Types = append(p.Types, kg.TypeID(rng.Intn(2)))
		}
		for i := 0; i < attrs; i++ {
			p.Attrs = append(p.Attrs, kg.AttrID(rng.Intn(2)))
		}
		return p
	}
	var pool []PathPattern
	for i := 0; i < 4; i++ {
		pool = append(pool,
			PathPattern{},       // key of 1 byte
			long(32, 31, false), // 253 bytes
			long(32, 32, true),  // 257 bytes
			long(33, 32, false), // 261 bytes
			long(1+rng.Intn(3), 0, false))
	}
	for len(pool) < 120 {
		k := rng.Intn(4)
		edgeEnd := k > 0 && rng.Intn(2) == 0
		types := k + 1
		if edgeEnd {
			types = k
		}
		p := long(types, k, edgeEnd)
		for i := range p.Types {
			p.Types[i] = kg.TypeID(rng.Intn(300)) // beyond one byte
		}
		pool = append(pool, p)
	}
	wantLens := map[int]bool{1: true, 253: true, 257: true, 261: true}
	for _, p := range pool {
		delete(wantLens, len(p.Key()))
	}
	if len(wantLens) > 0 {
		t.Fatalf("pool lacks key lengths %v", wantLens)
	}

	// Two tables interning the pool in different orders.
	ta, tb := NewPatternTable(), NewPatternTable()
	for _, i := range rng.Perm(len(pool)) {
		ta.Intern(pool[i])
	}
	for _, i := range rng.Perm(len(pool)) {
		tb.Intern(pool[i])
	}
	idIn := func(pt *PatternTable, p PathPattern) PatternID {
		id, ok := pt.Lookup(p)
		if !ok {
			t.Fatal("pool pattern not interned")
		}
		return id
	}
	// tree draws m paths; pairs often share a prefix, so later segments
	// decide too.
	tree := func(m int, prefix []int) []int {
		out := append([]int(nil), prefix[:min(len(prefix), m)]...)
		for len(out) < m {
			out = append(out, rng.Intn(len(pool)))
		}
		return out
	}
	in := func(pt *PatternTable, idx []int) TreePattern {
		tp := TreePattern{}
		for _, i := range idx {
			tp.Paths = append(tp.Paths, idIn(pt, pool[i]))
		}
		return tp
	}
	sign := func(c int) int { return max(-1, min(1, c)) }
	for n := 0; n < 20000; n++ {
		x := tree(1+rng.Intn(3), nil)
		y := tree(1+rng.Intn(3), x[:rng.Intn(len(x)+1)])
		for _, tabs := range [][2]*PatternTable{{ta, tb}, {ta, ta}, {tb, ta}} {
			tx, ty := in(tabs[0], x), in(tabs[1], y)
			want := strings.Compare(tx.ContentKey(tabs[0]), ty.ContentKey(tabs[1]))
			if got := tx.CompareContent(tabs[0], ty, tabs[1]); sign(got) != want {
				t.Fatalf("paths %v vs %v: CompareContent %d, ContentKey order %d", x, y, got, want)
			}
		}
	}
}
