package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kbtable/internal/kg"
)

// sameTermBits reports whether two keys are the same bits, so a -0 is
// told from a +0 and a NaN matches itself.
func sameTermBits(a, b termEntry) bool {
	return a.len == b.len && a.node == b.node && math.Float64bits(a.sim) == math.Float64bits(b.sim)
}

// TestTermInternerMatchesMap: termInterner hands out the references and
// builds the pool, in order, that a map[termEntry]uint32 does: over random
// keys drawn from a small alphabet (heavy duplication) whose sims hold
// +0, -0 and NaN, with hints from zero to the input length, so the table
// grows well past its hint.
func TestTermInternerMatchesMap(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1, -1, 0.5, 1.0 / 3, math.Inf(1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 100, 5000} {
		for _, hint := range []int{0, 1, n / 8, n} {
			for trial := 0; trial < 3; trial++ {
				label := fmt.Sprintf("n=%d hint=%d trial=%d", n, hint, trial)
				pick := func() float64 {
					if rng.Intn(4) == 0 {
						return rng.Float64() // mostly distinct: forces growth
					}
					return floats[rng.Intn(len(floats))]
				}
				ti := newTermInterner(hint)
				ref := map[termEntry]uint32{}
				var pool []termEntry
				for i := 0; i < n; i++ {
					node := kg.NodeID(rng.Intn(8))
					if rng.Intn(4) == 0 {
						node = kg.NodeID(rng.Int31()) // mostly distinct: forces growth
					}
					term := termEntry{len: 1 + rng.Int31n(3), node: node, sim: pick()}
					want, ok := ref[term]
					if !ok {
						want = uint32(len(pool))
						ref[term] = want
						pool = append(pool, term)
					}
					if got := ti.intern(term); got != want {
						t.Fatalf("%s: entry %d %+v: ref %d, map gives %d", label, i, term, got, want)
					}
				}
				if len(ti.pool) != len(pool) {
					t.Fatalf("%s: pool has %d terms, map pool %d", label, len(ti.pool), len(pool))
				}
				for i := range pool {
					if !sameTermBits(ti.pool[i], pool[i]) {
						t.Fatalf("%s: pool[%d] = %+v, map pool %+v", label, i, ti.pool[i], pool[i])
					}
				}
			}
		}
	}
}
