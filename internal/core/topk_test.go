package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKBasic(t *testing.T) {
	q := NewTopK(2, cmp.Compare[string])
	q.Offer(1, "a")
	q.Offer(3, "c")
	q.Offer(2, "b")
	if got := q.Results(); !reflect.DeepEqual(got, []string{"c", "b"}) {
		t.Errorf("Results = %v", got)
	}
}

func TestTopKTieBreakByKey(t *testing.T) {
	q := NewTopK(2, cmp.Compare[string])
	q.Offer(1, "z")
	q.Offer(1, "a")
	q.Offer(1, "m")
	// All score 1: keep the two least values, ordered ascending.
	if got := q.Results(); !reflect.DeepEqual(got, []string{"a", "m"}) {
		t.Errorf("Results = %v", got)
	}
}

func TestTopKZero(t *testing.T) {
	q := NewTopK(0, cmp.Compare[int])
	if q.Offer(5, 1) {
		t.Errorf("k=0 should reject everything")
	}
	if q.Len() != 0 || len(q.Results()) != 0 {
		t.Errorf("k=0 should stay empty")
	}
	if q.WouldAccept(100) {
		t.Errorf("k=0 should not accept")
	}
}

func TestTopKWouldAccept(t *testing.T) {
	q := NewTopK(1, cmp.Compare[int])
	if !q.WouldAccept(0) {
		t.Errorf("empty queue accepts anything")
	}
	q.Offer(5, 1)
	if q.WouldAccept(4) {
		t.Errorf("score below min should not be accepted")
	}
	if !q.WouldAccept(5) || !q.WouldAccept(6) {
		t.Errorf("score >= min should be considered")
	}
}

func TestTopKDeterministicUnderPermutation(t *testing.T) {
	items := make([]topkItem[int], 50)
	for i := range items {
		items[i] = topkItem[int]{score: float64(i % 7), val: (i * 17) % 50}
	}
	ref := NewTopK(10, cmp.Compare[int])
	for _, it := range items {
		ref.Offer(it.score, it.val)
	}
	want := ref.Results()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(items))
		q := NewTopK(10, cmp.Compare[int])
		for _, i := range perm {
			q.Offer(items[i].score, items[i].val)
		}
		if got := q.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation changed results: %v vs %v", got, want)
		}
	}
}

// rankedPair is a scored value and the reference order: score descending,
// then value ascending.
type rankedPair struct {
	s float64
	v string
}

func sortRanked(all []rankedPair, k int) []string {
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].v < all[j].v
	})
	want := []string{}
	for i := 0; i < len(all) && i < k; i++ {
		want = append(want, all[i].v)
	}
	return want
}

// TestTopKMatchesSort cross-checks the heap against a full sort on random
// inputs (property-based).
func TestTopKMatchesSort(t *testing.T) {
	f := func(scores []float64, k8 uint8) bool {
		k := int(k8%20) + 1
		var all []rankedPair
		q := NewTopK(k, cmp.Compare[string])
		for i, s := range scores {
			v := fmt.Sprintf("key%03d", i)
			q.Offer(s, v)
			all = append(all, rankedPair{s, v})
		}
		return reflect.DeepEqual(q.Results(), sortRanked(all, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTopKMergeMatchesSort runs adversarial streams — all scores equal,
// monotone, ties at the k-th score — through one queue and through
// per-worker queues merged in either order: each must retain exactly the
// k best under (score descending, comparator ascending), best-first, and
// Offer must report retention as the reference order decides it.
func TestTopKMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	streams := map[string][]rankedPair{}
	for i := 0; i < 40; i++ {
		v := fmt.Sprintf("k%02d", (i*17)%40) // distinct, scrambled
		streams["all scores equal"] = append(streams["all scores equal"], rankedPair{1, v})
		streams["ascending"] = append(streams["ascending"], rankedPair{float64(i), v})
		streams["descending"] = append(streams["descending"], rankedPair{float64(-i), v})
		streams["ties at the k-th"] = append(streams["ties at the k-th"], rankedPair{float64(i % 3), v})
		streams["random"] = append(streams["random"], rankedPair{float64(rng.Intn(6)), v})
	}
	for name, stream := range streams {
		for _, k := range []int{1, 5, len(stream), len(stream) + 7} {
			one := NewTopK(k, cmp.Compare[string])
			parts := [2]*TopK[string]{NewTopK(k, cmp.Compare[string]), NewTopK(k, cmp.Compare[string])}
			for i, it := range stream {
				kept := one.Offer(it.s, it.v)
				want := sortRanked(append([]rankedPair(nil), stream[:i+1]...), k)
				if in := slices.Contains(want, it.v); kept != in {
					t.Fatalf("%s k=%d item %d: Offer retained=%v, reference %v", name, k, i, kept, in)
				}
				parts[i%2].Offer(it.s, it.v)
			}
			want := sortRanked(append([]rankedPair(nil), stream...), k)
			if got := one.Results(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: one queue %v, want %v", name, k, got, want)
			}
			for _, order := range [][2]int{{0, 1}, {1, 0}} {
				m := NewTopK(k, cmp.Compare[string])
				m.Merge(parts[order[0]])
				m.Merge(parts[order[1]])
				if got := m.Results(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d merge %v: %v, want %v", name, k, order, got, want)
				}
			}
		}
	}
}
