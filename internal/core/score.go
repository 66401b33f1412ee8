package core

import "math"

// ScoreTerms are the per-(keyword, path) components of the paper's scoring
// functions (Section 2.2.3), ready when a path run is read so that online
// scoring is a cheap fold:
//
//	Len — |T(w)|, the number of nodes on the path (score1 term)
//	PR  — PageRank of the node containing w (score2 term)
//	Sim — Jaccard similarity between w and the matched text (score3 term)
//
// Len and Sim are precomputed at index construction; PR is joined from the
// epoch's PageRank vector by node as the index copies a run's terms out.
type ScoreTerms struct {
	Len int
	PR  float64
	Sim float64
}

// Scorer evaluates score(T, q) = score1^z1 · score2^z2 · score3^z3
// (Equation 3) where score1 = Σ|T(w)|, score2 = ΣPR(f(w)),
// score3 = Σ sim(w, f(w)) (Equations 4–6).
type Scorer struct {
	Z1, Z2, Z3 float64
}

// DefaultScorer returns the paper's default weights z1=-1, z2=1, z3=1:
// smaller trees, more important nodes, better text matches score higher.
func DefaultScorer() Scorer { return Scorer{Z1: -1, Z2: 1, Z3: 1} }

// Tree computes the relevance score of a valid subtree from its per-path
// terms.
func (s Scorer) Tree(terms []ScoreTerms) float64 {
	sumLen := 0
	sumPR := 0.0
	sumSim := 0.0
	for _, t := range terms {
		sumLen += t.Len
		sumPR += t.PR
		sumSim += t.Sim
	}
	return s.FromSums(sumLen, sumPR, sumSim)
}

// FromSums is Equation 3 over already-summed terms: Tree's last step, for
// callers that carry the sums themselves. Adding the terms left to right
// from zero and calling FromSums yields exactly Tree's bits.
//
// Under the default exponents (−1, 1, 1) it computes (1/len)·pr·sim, with
// 0 for the first factor when len = 0: the operations pow performs for
// those exponents, in the same order, so the bits are equal, without three
// calls per subtree.
func (s Scorer) FromSums(sumLen int, sumPR, sumSim float64) float64 {
	if s.Z1 == -1 && s.Z2 == 1 && s.Z3 == 1 {
		inv := 0.0
		if sumLen != 0 {
			inv = 1 / float64(sumLen)
		}
		return inv * sumPR * sumSim
	}
	return pow(float64(sumLen), s.Z1) * pow(sumPR, s.Z2) * pow(sumSim, s.Z3)
}

// pow is math.Pow with fast paths for the exponents the default scorer
// uses; scoring sits on the hot path of all three algorithms.
func pow(x, z float64) float64 {
	switch z {
	case 0:
		return 1
	case 1:
		return x
	case -1:
		if x == 0 {
			return 0
		}
		return 1 / x
	}
	if x == 0 && z < 0 {
		return 0
	}
	return math.Pow(x, z)
}

// TreeUB returns an upper bound on Tree() over every term vector whose
// summed Len/PR/Sim components lie in the given closed intervals. The
// streaming executor pushes the running k-th-score bound down into
// enumeration with it: a pattern whose TreeUB-derived aggregate bound
// cannot enter the top-k heap is pruned before any path expansion.
// Intervals must satisfy 0 <= lo <= hi (score terms are non-negative);
// the bound is conservative (+Inf) when a negative exponent meets a zero
// lower endpoint.
func (s Scorer) TreeUB(lenLo, lenHi, prLo, prHi, simLo, simHi float64) float64 {
	return maxPow(lenLo, lenHi, s.Z1) * maxPow(prLo, prHi, s.Z2) * maxPow(simLo, simHi, s.Z3)
}

// maxPow maximizes pow(x, z) over x in [lo, hi]: x^z is monotone on the
// non-negative reals, so the maximum sits at hi for z >= 0 and at lo for
// z < 0. A zero lower endpoint under a negative exponent is unbounded —
// return +Inf rather than pow's 0-for-empty fast path, which exists for
// actual scores (a zero sum means no match), not for interval bounds.
func maxPow(lo, hi, z float64) float64 {
	if z >= 0 {
		return pow(hi, z)
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return pow(lo, z)
}

// Agg selects how subtree scores aggregate into a pattern score
// (Section 2.2.3): the paper's default is Sum; Count, Avg and Max are the
// alternatives it names.
type Agg int

// Aggregation functions for pattern scores.
const (
	AggSum Agg = iota
	AggCount
	AggAvg
	AggMax
)

// String implements fmt.Stringer for experiment reports.
func (a Agg) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggMax:
		return "max"
	}
	return "unknown"
}

// PatternScore accumulates subtree scores for one tree pattern in a way
// that supports all aggregation functions in one pass.
type PatternScore struct {
	Sum   float64
	Max   float64
	Count int
}

// Add folds one subtree score into the accumulator.
func (p *PatternScore) Add(treeScore float64) {
	p.Sum += treeScore
	if p.Count == 0 || treeScore > p.Max {
		p.Max = treeScore
	}
	p.Count++
}

// Merge folds another accumulator in (used when pattern scores are
// decomposed per candidate root, Theorem 5).
func (p *PatternScore) Merge(o PatternScore) {
	p.Sum += o.Sum
	if p.Count == 0 || o.Max > p.Max {
		p.Max = o.Max
	}
	p.Count += o.Count
}

// Value returns the aggregate under a.
func (p PatternScore) Value(a Agg) float64 {
	switch a {
	case AggSum:
		return p.Sum
	case AggCount:
		return float64(p.Count)
	case AggAvg:
		if p.Count == 0 {
			return 0
		}
		return p.Sum / float64(p.Count)
	case AggMax:
		return p.Max
	}
	return 0
}

// Scale returns a copy with Sum and Max multiplied by f and the count
// scaled, used to turn a ρ-sample accumulator into an unbiased estimate
// ŝ = (1/ρ)·Σ_{r∈R+} s(r) (Section 4.2.2). Max is left unscaled (max of a
// sample is already an estimate of max) and Count is scaled and rounded.
// The explicit float64 conversion rounds the product before the addition,
// which keeps Go from fusing them into one FMA instruction on the
// architectures that have one: the bits are amd64's everywhere.
func (p PatternScore) Scale(f float64) PatternScore {
	return PatternScore{
		Sum:   p.Sum * f,
		Max:   p.Max,
		Count: int(float64(float64(p.Count)*f) + 0.5),
	}
}
