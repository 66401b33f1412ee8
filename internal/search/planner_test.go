package search

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
)

// TestPlanProbeStats pins the prepare-stage statistics against an exact
// LINEARENUM run, which expands every candidate root and counts every
// valid subtree it scores.
func TestPlanProbeStats(t *testing.T) {
	for _, tc := range synthCases(t) {
		ix, err := index.Build(tc.g, index.Options{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tc.queries {
			st, err := probe(context.Background(), ix, q)
			if err != nil {
				t.Fatal(err)
			}
			le, err := executeQuery(context.Background(), ix, q, AlgoLE, Options{SkipTrees: true})
			if err != nil {
				t.Fatal(err)
			}
			if want := le.Stats.CandidateRoots; st.CandidateRoots != want {
				t.Errorf("%s/%q: CandidateRoots = %d, LINEARENUM expanded %d", tc.name, q, st.CandidateRoots, want)
			}
			if want := le.Stats.TreesFound; st.Frontier != want {
				t.Errorf("%s/%q: Frontier = %d, LINEARENUM scored %d subtrees", tc.name, q, st.Frontier, want)
			}
			if st.CandidateRoots > 0 && st.PatternSpace <= 0 {
				t.Errorf("%s/%q: answerable query has PatternSpace = %d", tc.name, q, st.PatternSpace)
			}
		}
	}
}

// TestChoosePlanDeterministic: the planner is a pure function of the
// PlanStats — repeated calls agree exactly — and explicit algorithms pass
// through regardless of them.
func TestChoosePlanDeterministic(t *testing.T) {
	st := PlanStats{CandidateRoots: 100, RootTypes: 7, PatternSpace: 5000, Frontier: 9000}
	first := ChoosePlan(AlgoAuto, st)
	for i := 0; i < 10; i++ {
		if got := ChoosePlan(AlgoAuto, st); !reflect.DeepEqual(got, first) {
			t.Fatalf("plan changed across calls: %+v vs %+v", got, first)
		}
	}
	if p := ChoosePlan(AlgoLE, PlanStats{PatternSpace: 1}); p.Algo != AlgoLE || p.Auto {
		t.Errorf("explicit LE resolved to %+v", p)
	}
}

// TestPlanStatsMerge pins the shard-layer merge semantics: disjoint
// partitions sum, -1 poisons, RootTypes maxes.
func TestPlanStatsMerge(t *testing.T) {
	a := PlanStats{CandidateRoots: 3, RootTypes: 2, PatternSpace: 10, Frontier: 20}
	b := PlanStats{CandidateRoots: 7, RootTypes: 5, PatternSpace: 1, Frontier: 2}
	a.Merge(b)
	want := PlanStats{CandidateRoots: 10, RootTypes: 5, PatternSpace: 11, Frontier: 22}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("merge = %+v, want %+v", a, want)
	}
	c := PlanStats{CandidateRoots: -1}
	c.Merge(b)
	if c.CandidateRoots != -1 {
		t.Errorf("-1 should poison the sum, got %d", c.CandidateRoots)
	}
}

// TestChoosePlanSaturation is the regression test for the cost-compare
// overflow bugs on explosive queries, restated for the cost form
// PatternSpace + Frontier/2 <= CandidateRoots + 1:
//
//  1. A saturating term must saturate PE's cost, not wrap it to
//     MinInt64, which would choose PE on precisely the explosive
//     frontiers LE handles in one pass; LE's "+ 1" must not wrap either.
//  2. The costs were once compared as float64, which collapses distinct
//     int64 values above 2^53 onto one rounding bucket and could flip
//     near-saturated decisions.
//
// It also pins the Reason's wording, which names both sides.
func TestChoosePlanSaturation(t *testing.T) {
	// Case 1: PE cost saturates through the frontier, LE cost is trivial
	// — LE must win.
	st := PlanStats{CandidateRoots: 10, RootTypes: 1, PatternSpace: math.MaxInt64 - 10, Frontier: math.MaxInt64}
	if p := ChoosePlan(AlgoAuto, st); p.Algo != AlgoLE {
		t.Errorf("saturated PE cost resolved to %v, want LE (peCost must not wrap negative)", p.Algo)
	}
	// LE cost saturates through the "+ 1", PE cost is trivial — PE must win.
	st = PlanStats{CandidateRoots: math.MaxInt, RootTypes: 1, PatternSpace: 1, Frontier: 2}
	if p := ChoosePlan(AlgoAuto, st); p.Algo != AlgoPE {
		t.Errorf("saturated LE cost resolved to %v, want PE (leCost must not wrap negative)", p.Algo)
	}
	// Case 2: costs 1 apart above 2^53 — float64 would see them equal
	// and pick PE; the exact integer compare must pick LE.
	leCost := int64(1)<<59 + 1 // roots 2^59 + 1
	st = PlanStats{
		CandidateRoots: 1 << 59,
		RootTypes:      1,
		PatternSpace:   leCost + 1 - 1<<58,
		Frontier:       1 << 59, // PE cost = pattern space + 2^58 = leCost + 1
	}
	if p := ChoosePlan(AlgoAuto, st); p.Algo != AlgoLE {
		t.Errorf("peCost=leCost+1 above 2^53 resolved to %v, want LE (the compare must be exact)", p.Algo)
	}
	st.PatternSpace-- // exactly equal: tie goes to PE
	if p := ChoosePlan(AlgoAuto, st); p.Algo != AlgoPE {
		t.Errorf("peCost=leCost resolved to %v, want PE", p.Algo)
	}
	// Both costs saturated: indistinguishable, the tie still resolves
	// deterministically (PE) and never panics.
	st = PlanStats{CandidateRoots: math.MaxInt, PatternSpace: math.MaxInt64, Frontier: math.MaxInt64}
	if p := ChoosePlan(AlgoAuto, st); p.Algo != AlgoPE {
		t.Errorf("both-saturated costs resolved to %v, want PE", p.Algo)
	}
	// The Reason names both costs and the terms each is made of.
	for _, tc := range []struct {
		st   PlanStats
		want string
	}{
		{PlanStats{CandidateRoots: 3, PatternSpace: 9, Frontier: 10},
			"PE cost 14 (pattern space 9 + frontier 10 / 2) > LE cost 4 (roots 3 + 1): LINEARENUM-TOPK"},
		{PlanStats{CandidateRoots: 30, PatternSpace: 9, Frontier: 10},
			"PE cost 14 (pattern space 9 + frontier 10 / 2) <= LE cost 31 (roots 30 + 1): PATTERNENUM"},
		{PlanStats{CandidateRoots: -1, PatternSpace: 1},
			"PE cost 1 (pattern space 1 + frontier 0 / 2) <= LE cost 1 (roots 0 + 1): PATTERNENUM"},
	} {
		if got := ChoosePlan(AlgoAuto, tc.st).Reason; got != tc.want {
			t.Errorf("%+v: Reason = %q, want %q", tc.st, got, tc.want)
		}
	}
}

// TestPrepareCancellation pins the satellite fix: a context that is
// already done aborts the query inside the prepare stage — before any
// posting lookup or enumeration work — for every algorithm, including the
// planner probe.
func TestPrepareCancellation(t *testing.T) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: 800, Types: 20})
	ix, err := index.Build(g, index.Options{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := "city population"
	for _, algo := range []Algo{AlgoPE, AlgoLE, AlgoAuto} {
		if _, err := executeQuery(ctx, ix, q, algo, Options{K: 5}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v on canceled ctx: err = %v, want context.Canceled", algo, err)
		}
	}
	if _, err := probe(ctx, ix, q); !errors.Is(err, context.Canceled) {
		t.Errorf("PlanProbe on canceled ctx: err = %v, want context.Canceled", err)
	}
	bl, err := NewBaseline(g, BaselineOptions{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.SearchCtx(ctx, q, Options{K: 5}); !errors.Is(err, context.Canceled) {
		t.Errorf("baseline on canceled ctx: err = %v, want context.Canceled", err)
	}
}
