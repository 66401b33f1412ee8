package search

import (
	"fmt"
	"math/rand"
	"testing"

	"kbtable/internal/index"
	"kbtable/internal/kg"
)

// TestTheorem1Reduction executes the paper's Appendix A reduction from
// s-t PATHS to COUNTPAT: given a directed graph G with nodes s and t, two
// disjoint copies of G are joined under a fresh root r with edges to both
// copies of s, every node/edge gets a unique type and text, and the query
// holds the two copies of t's text. The number of tree patterns with
// height d = |V|+1 must then equal N², where N is the number of simple
// s-t paths in G. Verifying the square on random DAGs demonstrates the
// reduction (and exercises pattern counting through genuinely distinct
// path structures).
func TestTheorem1Reduction(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Random DAG over n nodes, edges only forward: simple paths are
		// countable by DP, and all paths are simple.
		n := 4 + rng.Intn(3)
		adj := make([][]int, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					adj[u] = append(adj[u], v)
				}
			}
		}
		s, tt := 0, n-1
		// Count simple s-t paths by DP over the DAG.
		paths := make([]int64, n)
		paths[tt] = 1
		for u := n - 2; u >= 0; u-- {
			for _, v := range adj[u] {
				paths[u] += paths[v]
			}
		}
		nPaths := paths[s]

		// Build the reduction's knowledge graph G2.
		b := kg.NewBuilder()
		mkCopy := func(tag string) []kg.NodeID {
			ids := make([]kg.NodeID, n)
			for u := 0; u < n; u++ {
				ids[u] = b.Entity(fmt.Sprintf("T%s%d", tag, u), fmt.Sprintf("node%s%d", tag, u))
			}
			for u := 0; u < n; u++ {
				for _, v := range adj[u] {
					b.Attr(ids[u], fmt.Sprintf("a%s%d_%d", tag, u, v), ids[v])
				}
			}
			return ids
		}
		c1 := mkCopy("x")
		c2 := mkCopy("y")
		root := b.Entity("Root", "rootnode")
		b.Attr(root, "toX", c1[s])
		b.Attr(root, "toY", c2[s])
		g := b.MustFreeze()

		ix, err := index.Build(g, index.Options{D: n + 1, UniformPR: true})
		if err != nil {
			t.Fatal(err)
		}
		// Query: the texts of the two copies of t.
		q := fmt.Sprintf("nodex%d nodey%d", tt, tt)
		got, trees, _ := CountAllCapped(ix, q, 0)
		want := nPaths * nPaths
		if int64(got) != want {
			t.Errorf("seed %d: COUNTPAT = %d, want N^2 = %d (N=%d s-t paths)", seed, got, want, nPaths)
		}
		// With unique types, patterns and subtrees are in bijection here.
		if trees != want {
			t.Errorf("seed %d: trees = %d, want %d", seed, trees, want)
		}
	}
}
