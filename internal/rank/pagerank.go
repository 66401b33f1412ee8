// Package rank computes PageRank scores over a knowledge graph, the node
// importance used by the paper's score2 (Section 2.2.3): initial value
// 1/|V|, damping factor a = 0.85, iterated until every node's score changes
// by less than 1e-8 (both configurable).
package rank

import "kbtable/internal/kg"

// Options control the PageRank iteration.
type Options struct {
	// Damping is the paper's a; 0.85 if zero.
	Damping float64
	// Epsilon is the per-node convergence threshold; 1e-8 if zero.
	Epsilon float64
	// MaxIter caps the iteration count as a safety net; 200 if zero.
	MaxIter int
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-8
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	return o
}

// PageRank returns one score per node. Dangling nodes (out-degree 0, e.g.
// every Literal dummy entity) distribute their mass uniformly, the standard
// correction that keeps scores summing to 1.
func PageRank(g *kg.Graph, opts Options) []float64 {
	o := opts.withDefaults()
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	inv := 1.0 / float64(n)
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = inv
	}

	// The explicit float64 conversions below round each product before it
	// is added, so no architecture fuses them into an FMA and the scores
	// are bit-identical everywhere.
	for iter := 0; iter < o.MaxIter; iter++ {
		base := float64((1 - o.Damping) * inv)
		// Dangling mass is re-distributed uniformly.
		dangling := 0.0
		for v := 0; v < n; v++ {
			if g.OutDegree(kg.NodeID(v)) == 0 {
				dangling += cur[v]
			}
		}
		base += float64(o.Damping * dangling * inv)
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			deg := g.OutDegree(kg.NodeID(v))
			if deg == 0 {
				continue
			}
			share := o.Damping * cur[v] / float64(deg)
			for _, e := range g.OutEdgeSlice(kg.NodeID(v)) {
				next[e.Dst] += share
			}
		}
		maxDelta := 0.0
		for i := range cur {
			d := next[i] - cur[i]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
		cur, next = next, cur
		if maxDelta < o.Epsilon {
			break
		}
	}
	return cur
}

// Uniform returns the all-ones score vector, matching Example 2.4's
// "assuming every node has the same PageRank score 1". Useful in tests and
// ablations isolating score2's influence.
func Uniform(g *kg.Graph) []float64 {
	pr := make([]float64, g.NumNodes())
	for i := range pr {
		pr[i] = 1
	}
	return pr
}
