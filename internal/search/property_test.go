package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kbtable/internal/index"
	"kbtable/internal/kg"
)

// randomGraph builds a random typed knowledge graph whose node texts are
// drawn from a small vocabulary, so that multi-keyword queries have
// answers and patterns genuinely aggregate.
func randomGraph(rng *rand.Rand) *kg.Graph {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	types := []string{"City", "Person", "Company", "Product"}
	attrs := []string{"knows", "owns", "near", "makes"}
	b := kg.NewBuilder()
	n := 8 + rng.Intn(20)
	ids := make([]kg.NodeID, n)
	for i := 0; i < n; i++ {
		nw := 1 + rng.Intn(2)
		txt := ""
		for j := 0; j < nw; j++ {
			if j > 0 {
				txt += " "
			}
			txt += vocab[rng.Intn(len(vocab))]
		}
		ids[i] = b.Entity(types[rng.Intn(len(types))], txt)
	}
	en := rng.Intn(3 * n)
	for i := 0; i < en; i++ {
		b.Attr(ids[rng.Intn(n)], attrs[rng.Intn(len(attrs))], ids[rng.Intn(n)])
	}
	return b.MustFreeze()
}

// TestAlgorithmsAgreeOnRandomGraphs is the central equivalence property:
// on arbitrary graphs and queries, PATTERNENUM, LINEARENUM (exact) and the
// enumeration-aggregation baseline must produce identical pattern sets,
// scores and tree counts.
func TestAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	queries := []string{
		"alpha", "alpha beta", "gamma delta", "company alpha",
		"knows beta", "owns city", "alpha beta gamma",
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		d := 2 + rng.Intn(2) // d in {2,3}
		ix, err := index.Build(g, index.Options{D: d, UniformPR: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bl, err := NewBaseline(g, BaselineOptions{D: d, UniformPR: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, q := range queries {
			pe := PETopK(ix, q, Options{K: 100000, SkipTrees: true})
			le := LETopK(ix, q, Options{K: 100000, SkipTrees: true})
			blres := bl.Search(q, Options{K: 100000, SkipTrees: true})

			gotPE := renderPE(ix, pe)
			gotLE := renderPE(ix, le)
			gotBL := renderBL(g, blres)
			label := fmt.Sprintf("seed=%d d=%d q=%q", seed, d, q)
			if len(gotPE) != len(gotLE) || len(gotPE) != len(gotBL) {
				t.Errorf("%s: pattern counts differ PE=%d LE=%d BL=%d", label, len(gotPE), len(gotLE), len(gotBL))
				continue
			}
			for k, v := range gotPE {
				for name, other := range map[string]map[string]renderedPattern{"LE": gotLE, "BL": gotBL} {
					ov, ok := other[k]
					if !ok {
						t.Errorf("%s: %s missing pattern\n%s", label, name, k)
						continue
					}
					if math.Abs(v.Score-ov.Score) > 1e-9 || v.Count != ov.Count {
						t.Errorf("%s: %s disagrees on %q: %+v vs %+v", label, name, k, v, ov)
					}
				}
			}
			// CountAllCapped must agree with the exhaustive run.
			np, nt, _ := CountAllCapped(ix, q, 0)
			if np != pe.Stats.PatternsFound || nt != pe.Stats.TreesFound {
				t.Errorf("%s: CountAllCapped (%d,%d) != PETopK (%d,%d)", label, np, nt, pe.Stats.PatternsFound, pe.Stats.TreesFound)
			}
		}
	}
}

// TestSamplingPrecisionImproves checks Theorem 5's direction empirically:
// higher sampling rates give (weakly) better average precision against the
// exact top-k, on a graph large enough for sampling to engage.
func TestSamplingPrecisionImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// A larger random graph with repetitive structure: many roots share
	// patterns, so per-type subtree counts exceed the sampling threshold.
	b := kg.NewBuilder()
	edgeTypes := []string{"stars", "cameo", "directedBy", "writtenBy"}
	var movies []kg.NodeID
	for i := 0; i < 300; i++ {
		r := b.Entity("Movie", fmt.Sprintf("film %d", i))
		movies = append(movies, r)
		for _, et := range edgeTypes {
			if rng.Float64() < 0.6 {
				a := b.Entity("Person", fmt.Sprintf("actor %d", rng.Intn(80)))
				b.Attr(r, et, a)
			}
		}
		if i > 0 && rng.Float64() < 0.5 {
			// Sequel links create length-3 patterns like
			// (Movie)(sequelOf)(Movie)(stars)(Person).
			b.Attr(r, "sequelOf", movies[rng.Intn(i)])
		}
	}
	g := b.MustFreeze()
	ix, err := index.Build(g, index.Options{D: 3, UniformPR: true})
	if err != nil {
		t.Fatal(err)
	}
	q := "film actor"
	k := 10
	exact := LETopK(ix, q, Options{K: k, SkipTrees: true})
	if len(exact.Patterns) == 0 {
		t.Fatalf("query should have answers")
	}
	exactKeys := map[string]bool{}
	for _, rp := range exact.Patterns {
		exactKeys[rp.Pattern.Render(ix.Graph(), ix.PatternTable(), exact.Stats.Surfaces)] = true
	}
	if len(exactKeys) < 5 {
		t.Fatalf("test graph too uniform: only %d exact patterns", len(exactKeys))
	}
	denom := float64(len(exactKeys))
	precision := func(rho float64) float64 {
		total := 0.0
		const trials = 5
		for s := int64(1); s <= trials; s++ {
			res := LETopK(ix, q, Options{K: k, Lambda: 1, Rho: rho, Seed: s, SkipTrees: true})
			hit := 0
			for _, rp := range res.Patterns {
				if exactKeys[rp.Pattern.Render(ix.Graph(), ix.PatternTable(), res.Stats.Surfaces)] {
					hit++
				}
			}
			total += float64(hit) / denom
		}
		return total / trials
	}
	p10 := precision(0.10)
	p50 := precision(0.50)
	p100 := precision(1.0)
	t.Logf("precision: rho=0.1 %.2f, rho=0.5 %.2f, rho=1.0 %.2f", p10, p50, p100)
	if p100 < 0.999 {
		t.Errorf("rho=1 must be exact, got %v", p100)
	}
	if p50 < p10-0.2 {
		t.Errorf("precision should not collapse as rho grows: p50=%v p10=%v", p50, p10)
	}
	if p10 < 0.3 {
		t.Errorf("rho=0.1 precision suspiciously low: %v", p10)
	}
}
