package kbtable

import (
	"math/rand"
	"testing"
)

// The random-KB generator, exported to the external test package: its
// serving cell (randomkb_serve_test.go) drives internal/serve, which
// imports this package.

// RandomKBSeeds is TestRandomKB's fixed seed range, RandomKBPinned its
// pinned seeds.
const RandomKBSeeds = rkbSeeds

var RandomKBPinned = rkbPinned

// RandomKB returns seed's graph, engine options and queries, and the
// generator that continues the seed's stream for its updates.
func RandomKB(t testing.TB, seed int64) (*Graph, EngineOptions, []string, *rand.Rand) {
	kb, rng := newRandomKB(t, seed)
	return kb.g, kb.opts, kb.queries, rng
}

// RandomKBUpdate draws the seed's next update, one e accepts.
func RandomKBUpdate(t testing.TB, rng *rand.Rand, e *Engine) Update {
	return rkbUpdate(t, rng, e)
}
