package search

import (
	"context"
	"fmt"
	"time"

	"kbtable/internal/index"
)

// Prepared retains one query's prepare-stage output — resolved keywords,
// per-keyword posting handles, and the planner's statistics — so repeat
// executions of the same shape run only enumerate→aggregate→rank. A
// Prepared is bound to the index snapshot it was built from: engines are
// immutable, so the retained posting handles stay valid for the life of
// that snapshot, and callers re-prepare after an update (the serve layer
// invalidates prepared handles on epoch swap).
//
// The enumerate stage only reads the retained output, so one Prepared may
// back any number of concurrent executions.
type Prepared struct {
	algo Algo
	prep *prepared
}

// PrepareQuery runs stage 1 (keyword resolution + posting lookups +
// statistics) for query and retains the output. algo may be AlgoAuto —
// the prepare then gathers the planner's cost statistics too, and every
// execution resolves the same plan from them. The baseline has no
// prepare stage and is rejected.
func PrepareQuery(ctx context.Context, ix *index.Index, query string, algo Algo, opts Options) (*Prepared, error) {
	if algo == AlgoBaseline {
		return nil, fmt.Errorf("search: the baseline has no prepare stage")
	}
	words, surfaces := ResolveQuery(ix, query)
	prep, err := prepare(ctx, ix, words, surfaces, needFor(algo))
	if err != nil {
		return nil, err
	}
	return &Prepared{algo: algo, prep: prep}, nil
}

// Algo returns the algorithm the query was prepared for (possibly
// AlgoAuto).
func (p *Prepared) Algo() Algo { return p.algo }

// Stats returns the prepare-stage statistics.
func (p *Prepared) Stats() PlanStats { return p.prep.stats }

// ExecutePrepared runs stages 2-4 — enumerate, aggregate, rank — over a
// retained prepare. algo must be the algorithm the query was prepared
// for, or, when it was prepared for AlgoAuto, any algorithm the planner
// can resolve to (the shard scatter resolves Auto once from the merged
// statistics and executes every shard's prepared under the resolved
// algorithm). Passing AlgoAuto resolves from the retained statistics.
func ExecutePrepared(ctx context.Context, ix *index.Index, p *Prepared, algo Algo, opts Options) (*Result, error) {
	start := time.Now()
	o := opts.withDefaults()
	if algo == AlgoBaseline {
		return nil, fmt.Errorf("search: the baseline has no prepared execution")
	}
	if algo != p.algo && p.algo != AlgoAuto {
		return nil, fmt.Errorf("search: prepared for %v, cannot execute as %v", p.algo, algo)
	}
	return runStages(ctx, ix, p.prep, algo, o, start)
}
