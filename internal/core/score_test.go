package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScorerExample24(t *testing.T) {
	// Example 2.4 with uniform PageRank 1: T1 has score1 = 8, score2 = 4,
	// score3 = 3.5, so score(T1) = (1/8)*4*3.5 = 1.75.
	s := DefaultScorer()
	termsT1 := []ScoreTerms{
		{Len: 2, PR: 1, Sim: 0.5}, // database at "Relational database"
		{Len: 1, PR: 1, Sim: 1},   // software at type
		{Len: 2, PR: 1, Sim: 1},   // company at type
		{Len: 3, PR: 1, Sim: 1},   // revenue at attribute
	}
	got := s.Tree(termsT1)
	want := (1.0 / 8) * 4 * 3.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("score(T1) = %v, want %v", got, want)
	}

	// T3: score1 = 7, score2 = 4, score3 = 1/6+1/6+1+1.
	termsT3 := []ScoreTerms{
		{Len: 1, PR: 1, Sim: 1.0 / 6},
		{Len: 1, PR: 1, Sim: 1.0 / 6},
		{Len: 2, PR: 1, Sim: 1},
		{Len: 3, PR: 1, Sim: 1},
	}
	gotT3 := s.Tree(termsT3)
	wantT3 := (1.0 / 7) * 4 * (1.0/6 + 1.0/6 + 2)
	if math.Abs(gotT3-wantT3) > 1e-12 {
		t.Errorf("score(T3) = %v, want %v", gotT3, wantT3)
	}
	// Pattern P1 = {T1, T2} beats P2 = {T3} under sum aggregation.
	var p1, p2 PatternScore
	p1.Add(got)
	p1.Add(got) // T2 has identical terms to T1
	p2.Add(gotT3)
	if p1.Value(AggSum) <= p2.Value(AggSum) {
		t.Errorf("score(P1)=%v should exceed score(P2)=%v", p1.Value(AggSum), p2.Value(AggSum))
	}
}

func TestScorerZeroExponents(t *testing.T) {
	s := Scorer{} // z1=z2=z3=0: every tree scores 1
	if got := s.Tree([]ScoreTerms{{Len: 5, PR: 0.1, Sim: 0.3}}); got != 1 {
		t.Errorf("zero-exponent score = %v, want 1", got)
	}
}

func TestScorerSizeOnly(t *testing.T) {
	s := Scorer{Z1: -1}
	small := s.Tree([]ScoreTerms{{Len: 2}})
	large := s.Tree([]ScoreTerms{{Len: 8}})
	if small <= large {
		t.Errorf("smaller trees should score higher with z1=-1")
	}
}

func TestPowFastPathsAgreeWithMathPow(t *testing.T) {
	for _, x := range []float64{0.5, 1, 2, 7.25} {
		for _, z := range []float64{-1, 0, 1, 2, -2, 0.5} {
			got := pow(x, z)
			want := math.Pow(x, z)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("pow(%v,%v) = %v, want %v", x, z, got, want)
			}
		}
	}
	// Zero-base negative exponent is defined as 0 (not +Inf): empty paths
	// cannot dominate ranking.
	if pow(0, -1) != 0 || pow(0, -2) != 0 {
		t.Errorf("pow(0,negative) should be 0")
	}
}

// TestFromSumsDefaultMatchesPow holds FromSums' path for the default
// exponents to the three pow calls it skips, bit for bit, on edge values:
// a zero, a huge and a negative length, signed zeros, subnormals,
// infinities and NaN sums. A NaN result need only be NaN: which operand's
// payload a product of two NaNs carries depends on the order the compiler
// puts them in, which Go leaves open (score terms are finite anyway).
func TestFromSumsDefaultMatchesPow(t *testing.T) {
	s := DefaultScorer()
	lens := []int{0, 1, 2, 3, 7, 1 << 40, -1}
	vals := []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 0.1, 1, 1.5, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), -2.5}
	for _, l := range lens {
		for _, pr := range vals {
			for _, sim := range vals {
				want := pow(float64(l), s.Z1) * pow(pr, s.Z2) * pow(sim, s.Z3)
				got := s.FromSums(l, pr, sim)
				if math.IsNaN(got) && math.IsNaN(want) {
					continue
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("FromSums(%d, %v, %v) = %v (%x), pow gives %v (%x)", l, pr, sim, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestPatternScoreAggregations(t *testing.T) {
	var p PatternScore
	for _, v := range []float64{1, 3, 2} {
		p.Add(v)
	}
	if p.Value(AggSum) != 6 {
		t.Errorf("sum = %v", p.Value(AggSum))
	}
	if p.Value(AggCount) != 3 {
		t.Errorf("count = %v", p.Value(AggCount))
	}
	if p.Value(AggAvg) != 2 {
		t.Errorf("avg = %v", p.Value(AggAvg))
	}
	if p.Value(AggMax) != 3 {
		t.Errorf("max = %v", p.Value(AggMax))
	}
	var empty PatternScore
	if empty.Value(AggAvg) != 0 {
		t.Errorf("avg of empty should be 0")
	}
}

func TestPatternScoreMerge(t *testing.T) {
	var a, b PatternScore
	a.Add(1)
	a.Add(5)
	b.Add(3)
	a.Merge(b)
	if a.Count != 3 || a.Sum != 9 || a.Max != 5 {
		t.Errorf("merge wrong: %+v", a)
	}
	var c PatternScore
	c.Merge(a) // merging into empty adopts values
	if c.Count != 3 || c.Max != 5 {
		t.Errorf("merge into empty wrong: %+v", c)
	}
}

func TestPatternScoreMergeCommutes(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b, ab, ba PatternScore
		for _, x := range xs {
			a.Add(float64(x) / 64)
		}
		for _, y := range ys {
			b.Add(float64(y) / 64)
		}
		ab = a
		ab.Merge(b)
		ba = b
		ba.Merge(a)
		return ab.Count == ba.Count && math.Abs(ab.Sum-ba.Sum) < 1e-9 && ab.Max == ba.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternScoreScale(t *testing.T) {
	var p PatternScore
	p.Add(2)
	p.Add(4)
	s := p.Scale(10)
	if s.Sum != 60 {
		t.Errorf("scaled sum = %v, want 60", s.Sum)
	}
	if s.Count != 20 {
		t.Errorf("scaled count = %v, want 20", s.Count)
	}
	if s.Max != 4 {
		t.Errorf("max should not scale, got %v", s.Max)
	}
}

func TestAggString(t *testing.T) {
	cases := map[Agg]string{AggSum: "sum", AggCount: "count", AggAvg: "avg", AggMax: "max", Agg(99): "unknown"}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("String(%d) = %q, want %q", a, a.String(), want)
		}
	}
}
