package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKBasic(t *testing.T) {
	q := NewTopK[string](2)
	q.Offer(1, "a", "A")
	q.Offer(3, "c", "C")
	q.Offer(2, "b", "B")
	if got := q.Results(); !reflect.DeepEqual(got, []string{"C", "B"}) {
		t.Errorf("Results = %v", got)
	}
	if got := q.ResultScores(); !reflect.DeepEqual(got, []float64{3, 2}) {
		t.Errorf("Scores = %v", got)
	}
}

func TestTopKTieBreakByKey(t *testing.T) {
	q := NewTopK[string](2)
	q.Offer(1, "z", "Z")
	q.Offer(1, "a", "A")
	q.Offer(1, "m", "M")
	// All score 1: keep the two smallest keys, ordered ascending.
	if got := q.Results(); !reflect.DeepEqual(got, []string{"A", "M"}) {
		t.Errorf("Results = %v", got)
	}
}

func TestTopKZero(t *testing.T) {
	q := NewTopK[int](0)
	if q.Offer(5, "x", 1) {
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
	q := NewTopK[int](1)
	if !q.WouldAccept(0) {
		t.Errorf("empty queue accepts anything")
	}
	q.Offer(5, "a", 1)
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
		items[i] = topkItem[int]{score: float64(i % 7), key: fmt.Sprintf("k%02d", i), val: i}
	}
	ref := NewTopK[int](10)
	for _, it := range items {
		ref.Offer(it.score, it.key, it.val)
	}
	want := ref.Results()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(items))
		q := NewTopK[int](10)
		for _, i := range perm {
			q.Offer(items[i].score, items[i].key, items[i].val)
		}
		if got := q.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation changed results: %v vs %v", got, want)
		}
	}
}

// TestTopKMatchesSort cross-checks the heap against a full sort on random
// inputs (property-based).
func TestTopKMatchesSort(t *testing.T) {
	f := func(scores []float64, k8 uint8) bool {
		k := int(k8%20) + 1
		type pair struct {
			s float64
			k string
		}
		var all []pair
		q := NewTopK[string](k)
		for i, s := range scores {
			key := fmt.Sprintf("key%03d", i)
			q.Offer(s, key, key)
			all = append(all, pair{s, key})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].s != all[j].s {
				return all[i].s > all[j].s
			}
			return all[i].k < all[j].k
		})
		want := []string{}
		for i := 0; i < len(all) && i < k; i++ {
			want = append(want, all[i].k)
		}
		got := q.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTopKOfferFuncMatchesOffer runs adversarial streams through the eager
// and the lazy-key form: both must retain exactly the same items in the
// same order, and the lazy form may compute a key only for an item whose
// score reaches the k-th score at the time it is offered.
func TestTopKOfferFuncMatchesOffer(t *testing.T) {
	type item struct {
		score float64
		key   string
	}
	rng := rand.New(rand.NewSource(9))
	streams := map[string][]item{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%02d", (i*17)%40) // distinct, scrambled
		streams["all scores equal"] = append(streams["all scores equal"], item{1, key})
		streams["ascending"] = append(streams["ascending"], item{float64(i), key})
		streams["descending"] = append(streams["descending"], item{float64(-i), key})
		streams["ties at the k-th"] = append(streams["ties at the k-th"], item{float64(i % 3), key})
		streams["random"] = append(streams["random"], item{float64(rng.Intn(6)), key})
	}
	for name, stream := range streams {
		for _, k := range []int{1, 5, len(stream), len(stream) + 7} {
			eager, lazy := NewTopK[string](k), NewTopK[string](k)
			for i, it := range stream {
				kth, full := math.Inf(-1), lazy.Len() == k
				if full {
					kth = lazy.ResultScores()[k-1]
				}
				called := false
				got := lazy.OfferFunc(it.score, func() string { called = true; return it.key }, it.key)
				want := eager.Offer(it.score, it.key, it.key)
				if got != want {
					t.Fatalf("%s k=%d item %d: OfferFunc retained=%v, Offer retained=%v", name, k, i, got, want)
				}
				if reaches := !full || it.score >= kth; called != reaches {
					t.Fatalf("%s k=%d item %d (score %v, k-th %v): key computed=%v, want %v", name, k, i, it.score, kth, called, reaches)
				}
			}
			if !reflect.DeepEqual(lazy.Results(), eager.Results()) || !reflect.DeepEqual(lazy.ResultScores(), eager.ResultScores()) {
				t.Fatalf("%s k=%d: lazy %v != eager %v", name, k, lazy.Results(), eager.Results())
			}
		}
	}
}
