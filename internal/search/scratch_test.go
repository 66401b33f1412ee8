package search

import (
	"context"
	"math"
	"reflect"
	"testing"

	"kbtable/internal/core"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/text"
)

// nonZero counts the elements of s[:cap(s)] that are not their type's zero
// value: what a buffer still holds past its length counts too.
func nonZero[T any](s []T) int {
	n := 0
	for i := range s[:cap(s)] {
		if !reflect.ValueOf(&s[:cap(s)][i]).Elem().IsZero() {
			n++
		}
	}
	return n
}

// fillLE expands every candidate root of query through sc the way
// leEnumerate does, then exactly re-scores what it found the way a sampled
// type does, so the dictionary and the selection both hold entries.
func fillLE(t *testing.T, ix *index.Index, query string, o *Options, sc *leScratch) []text.WordID {
	t.Helper()
	words, _ := ResolveQuery(ix.Dict(), query)
	rootLists := make([][]kg.NodeID, len(words))
	for i, w := range words {
		rootLists[i] = ix.Roots(w)
	}
	roots := intersectSorted(nil, rootLists...)
	if len(roots) == 0 {
		t.Fatalf("%q has no candidate roots", query)
	}
	pc := &pollCancel{ctx: context.Background()}
	sc.dict.reset()
	for _, r := range roots {
		expandRoot(ix, words, r, o, pc, sc, &sc.dict, nil)
	}
	selected := make([]*dictEntry, len(sc.dict.entries))
	for i := range sc.dict.entries {
		selected[i] = &sc.dict.entries[i]
	}
	aggregateSelected(ix, words, selected, roots, o, pc, sc)
	return words
}

// TestLEScratchRelease holds the pooled scratch to pinning nothing: after
// release, every slot that can point into an index (posting runs, run
// cursors, tree-shape paths) or into a result (per-root partials), and the
// term lists the kernel walks, is zero over its buffer's full capacity.
// A four-keyword query fills the scratch, then a two-keyword one leaves the
// first query's runs past the new length, where only a full-capacity clear
// reaches them.
func TestLEScratchRelease(t *testing.T) {
	ix, _ := buildFig1Index(t, 3)
	o := Options{K: 5, RequireTreeShape: true, CollectRootAggs: true}.withDefaults()
	sc := &leScratch{}
	fillLE(t, ix, fig1Query, &o, sc)
	words := fillLE(t, ix, "database software", &o, sc)
	// LINEARENUM never opens run cursors, but aggScratch is shared code
	// (materializeTrees pools one): open one per keyword so the release
	// is checked on them too.
	groups := make([]index.Group, len(words))
	for i, w := range words {
		p := ix.PatternsAt(w, ix.Roots(w)[0])[0]
		g, ok := ix.Group(w, p)
		if !ok {
			t.Fatalf("keyword %d: no group for its first pattern", i)
		}
		groups[i] = g
	}
	sc.agg.open(groups)
	// TopTrees walks the chosen runs with the kernel; LINEARENUM's root
	// walk does not: start one so its lists are checked too.
	sc.firstCombo()
	sc.chosen()
	sc.agg.tw.start(sc.agg.lists)

	held := func() map[string]int {
		runs, past := 0, 0
		for i, rs := range sc.runs[:cap(sc.runs)] {
			runs += nonZero(rs)
			if i >= len(sc.runs) {
				past += nonZero(rs)
			}
		}
		tw := 0
		if sc.agg.tw.lists != nil {
			tw = 1
		}
		return map[string]int{
			"runs":          runs,
			"agg.sets":      nonZero(sc.agg.sets),
			"agg.cursors":   nonZero(sc.agg.cursors),
			"agg.paths":     nonZero(sc.agg.paths),
			"agg.lists":     nonZero(sc.agg.lists),
			"agg.tw.lists":  tw,
			"dict.entries":  nonZero(sc.dict.entries),
			"sel.entries":   nonZero(sc.sel.entries),
			"runs past len": past,
		}
	}
	for slot, n := range held() {
		if n == 0 {
			t.Fatalf("the fill left %s empty: the release check would prove nothing about it", slot)
		}
	}
	sc.release()
	for slot, n := range held() {
		if n != 0 {
			t.Errorf("after release, %s still holds %d non-zero elements", slot, n)
		}
	}

	// Every other field whose elements can hold a pointer must point only
	// into the scratch's own buffers: a field added beside them fails here
	// until release clears it (and the check above covers it) or it joins
	// this list.
	released := map[string]bool{"runs": true, "agg": true, "dict": true, "sel": true}
	own := map[string]bool{"terms": true, "ends": true} // views of arena; run ends
	st := reflect.TypeOf(leScratch{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if holdsPointer(elem) && !released[f.Name] && !own[f.Name] {
			t.Errorf("leScratch.%s can hold a pointer, and release neither clears it nor is it known to point into the scratch", f.Name)
		}
	}
}

// holdsPointer reports whether a value of type t can hold a pointer.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return holdsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestLEDictSlotPrefix holds the dictionary's slot table to the root type
// in hand: a reset shrinks the table in use to leDictMinSlots while the
// array keeps its capacity, growth within that capacity reuses it, and
// the stamps a larger, earlier type left past the prefix read as empty.
func TestLEDictSlotPrefix(t *testing.T) {
	var d leDict
	fill := func(n, base int) {
		d.reset()
		for i := 0; i < n; i++ {
			d.entry([]core.PatternID{core.PatternID(base + i), 7})
		}
	}
	fill(1000, 0)
	big := cap(d.slots)
	if len(d.slots) < 2000 {
		t.Fatalf("1000 entries in %d slots: the load factor is over 1/2", len(d.slots))
	}
	d.reset()
	if len(d.slots) != leDictMinSlots || cap(d.slots) != big {
		t.Fatalf("after reset: %d slots in use of %d, want %d of %d", len(d.slots), cap(d.slots), leDictMinSlots, big)
	}
	array := &d.slots[:1][0]
	for _, n := range []int{10, 300, 1000} {
		fill(n, 5000)
		if &d.slots[:1][0] != array {
			t.Fatalf("%d entries reallocated slots that had room for %d", n, big)
		}
		if want := max(leDictMinSlots, 2*n); len(d.slots) > 2*want {
			t.Errorf("%d entries use %d slots, want at most %d", n, len(d.slots), 2*want)
		}
		for i := 0; i < n; i++ {
			if de := d.find([]core.PatternID{core.PatternID(5000 + i), 7}); de == nil || de != &d.entries[i] {
				t.Fatalf("%d entries: entry %d not found at its insertion position", n, i)
			}
		}
		for i := 0; i < 1000; i++ { // the first fill's patterns, stale now
			if d.find([]core.PatternID{core.PatternID(i), 7}) != nil {
				t.Fatalf("%d entries: a stale stamp from an earlier type reads as entry %d", n, i)
			}
		}
	}
	// A wrapped stamp clears the whole array, past the prefix too.
	d.gen = math.MaxUint32
	fill(3, 9000)
	if d.gen != 1 {
		t.Fatalf("gen = %d after wrapping, want 1", d.gen)
	}
	for i, s := range d.slots[:cap(d.slots)] {
		if s != 0 && uint32(s>>32) != d.gen {
			t.Fatalf("slot %d kept stamp %d across the wrap", i, s>>32)
		}
	}
}
