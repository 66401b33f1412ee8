package search

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"kbtable/internal/kg"
)

// refIntersect is the obvious map-based reference for intersectSorted.
func refIntersect(lists [][]kg.NodeID) []kg.NodeID {
	if len(lists) == 0 {
		return nil
	}
	count := map[kg.NodeID]int{}
	for _, l := range lists {
		seen := map[kg.NodeID]bool{}
		for _, v := range l {
			if !seen[v] {
				seen[v] = true
				count[v]++
			}
		}
	}
	var out []kg.NodeID
	for v, c := range count {
		if c == len(lists) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestIntersectSortedProperty cross-checks the galloping intersection
// against the reference on random sorted inputs (testing/quick).
func TestIntersectSortedProperty(t *testing.T) {
	f := func(raw [][]uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		lists := make([][]kg.NodeID, len(raw))
		for i, r := range raw {
			seen := map[kg.NodeID]bool{}
			for _, v := range r {
				id := kg.NodeID(v % 40) // force overlap
				if !seen[id] {
					seen[id] = true
					lists[i] = append(lists[i], id)
				}
			}
			sort.Slice(lists[i], func(a, b int) bool { return lists[i][a] < lists[i][b] })
		}
		got := intersectSorted(nil, lists...)
		want := refIntersect(lists)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGallopMatchesBinarySearch: from any cursor, gallop lands where a
// binary search over the rest of the list would — including targets before
// the cursor's element, past the end, and brackets that overshoot the list.
func TestGallopMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		l := make([]kg.NodeID, rng.Intn(300))
		v := kg.NodeID(0)
		for i := range l {
			v += kg.NodeID(1 + rng.Intn(4))
			l[i] = v
		}
		c := rng.Intn(len(l) + 2) // may sit at or past the end
		target := kg.NodeID(rng.Intn(int(v) + 5))
		want := c
		if c < len(l) {
			want = c + sort.Search(len(l)-c, func(i int) bool { return l[c+i] >= target })
		}
		if got := gallop(l, c, target); got != want {
			t.Fatalf("gallop(len %d, c=%d, v=%d) = %d, want %d", len(l), c, target, got, want)
		}
	}
}

// TestIntersectSortedIntoScratch: the scratch form reuses dst's backing
// array, leaves the inputs untouched, and agrees with the fresh form when a
// short prefix meets a long posting list (the PATTERNENUM walk's shape).
func TestIntersectSortedIntoScratch(t *testing.T) {
	long := make([]kg.NodeID, 10000)
	for i := range long {
		long[i] = kg.NodeID(3 * i)
	}
	short := []kg.NodeID{3, 2999, 3000, 29997, 40000}
	want := []kg.NodeID{3, 3000, 29997}
	scratch := make([]kg.NodeID, 0, 8)
	for _, lists := range [][][]kg.NodeID{{short, long}, {long, short}, {long, short, long}} {
		got := intersectSorted(scratch, lists...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		if &got[0] != &scratch[:1][0] {
			t.Errorf("result does not reuse the scratch buffer")
		}
	}
	if short[1] != 2999 || long[1] != 3 {
		t.Errorf("inputs were modified")
	}
}

func TestIntersectSortedEdgeCases(t *testing.T) {
	if got := intersectSorted(nil); got != nil {
		t.Errorf("nil input should give nil")
	}
	if got := intersectSorted(nil, []kg.NodeID{}, []kg.NodeID{1}); len(got) != 0 {
		t.Errorf("empty member list gives empty intersection")
	}
	single := intersectSorted(nil, []kg.NodeID{3, 5, 9})
	if !reflect.DeepEqual(single, []kg.NodeID{3, 5, 9}) {
		t.Errorf("single-list intersection should be the list itself, got %v", single)
	}
}

func TestIntersectTypesProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		mk := func(r []uint8) []kg.TypeID {
			seen := map[kg.TypeID]bool{}
			var out []kg.TypeID
			for _, v := range r {
				id := kg.TypeID(v % 20)
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		la, lb := mk(a), mk(b)
		got := intersectTypes([][]kg.TypeID{la, lb})
		inB := map[kg.TypeID]bool{}
		for _, v := range lb {
			inB[v] = true
		}
		var want []kg.TypeID
		for _, v := range la {
			if inB[v] {
				want = append(want, v)
			}
		}
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
