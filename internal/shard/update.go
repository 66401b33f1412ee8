package shard

import (
	"fmt"
	"sort"

	"kbtable/internal/index"
	"kbtable/internal/kg"
)

// UpdateStats reports how one delta routed across the shards.
type UpdateStats struct {
	// DirtyRoots is the total number of re-enumerated roots (the dirty
	// sets of the individual shards partition kg.AffectedRoots).
	DirtyRoots int
	// AffectedShards counts shards whose postings were actually spliced;
	// the remaining shards rebound to the new snapshot without copying.
	AffectedShards int
	// EntriesRemoved / EntriesAdded sum the spliced postings.
	EntriesRemoved int64
	EntriesAdded   int64
	// TouchedWords is the sorted union of the shards' touched posting
	// lists.
	TouchedWords []string
	// ScoresRefreshed reports that scoring moved to a new PageRank vector
	// (set on any structural change under non-uniform PageRank; such
	// updates advance every shard's epoch; no posting is rewritten).
	ScoresRefreshed bool
}

// ApplyDelta routes a graph change to the shards owning its dirty roots
// and returns a NEW engine over ch.New; the receiver keeps serving its
// snapshot. Shards with no owned dirty roots skip re-enumeration entirely;
// when the delta also kept edge IDs they share their postings with the
// old epoch via Rebind, and their epoch counter advances only if PageRank
// moved. PageRank, the corpus (the touched nodes tokenized and the change's
// words interned before any splice) and kg.AffectedRoots are computed once,
// not per shard.
func (e *Engine) ApplyDelta(ch *kg.Changed) (*Engine, UpdateStats, error) {
	var us UpdateStats
	if ch == nil || ch.Old == nil || ch.New == nil {
		return nil, us, fmt.Errorf("shard: nil change")
	}
	if ch.Old != e.g {
		return nil, us, fmt.Errorf("shard: change was computed against a different graph snapshot")
	}

	// Extend the ownership table for appended nodes; existing assignments
	// never move (a tombstoned node keeps its shard so the owner cuts its
	// postings).
	owner := e.owner
	if n := ch.New.NumNodes(); n > len(owner) {
		owner = make([]uint8, n)
		copy(owner, e.owner)
		for v := len(e.owner); v < n; v++ {
			owner[v] = ownerOf(ch.New.Type(kg.NodeID(v)), kg.NodeID(v), e.n)
		}
	}

	dirty := kg.AffectedRoots(ch, e.opts.D-1)
	ownedDirty := make([]int, e.n)
	for _, r := range dirty {
		ownedDirty[owner[r]]++
	}
	structural := ch.AddedNodes > 0 || ch.RemovedNodes > 0 || ch.AddedEdges > 0 || ch.RemovedEdges > 0
	identityEdges := ch.EdgeMap == nil

	ne := &Engine{g: ch.New, n: e.n, opts: e.opts, owner: owner, pr: e.pr, corpus: e.corpus.Extend(ch)}
	var movedPR []float64 // set when the change moved PageRank; text edits cannot
	if structural {
		ne.pr = PageRankOf(ch.New, e.opts)
		movedPR = ne.pr
	}
	us.ScoresRefreshed = movedPR != nil

	ne.units = make([]*unit, e.n)
	stats := make([]index.DeltaStats, e.n)
	errs := make([]error, e.n)
	e.scatter(func(si int) {
		u := e.units[si]
		if u == nil {
			return // not resident (partial engine): nothing to splice
		}
		if ownedDirty[si] == 0 && identityEdges {
			// Untouched shard: same postings, new snapshot (and PR vector).
			epoch := u.epoch
			if us.ScoresRefreshed {
				epoch++
			}
			ne.units[si] = &unit{ix: u.ix.Rebind(ch.New, movedPR, ne.Dict()), epoch: epoch}
			return
		}
		// Each shard's splice gets the whole worker budget, not a 1/N
		// split as Build does: one update's splices are unbalanced (the
		// shard owning the change re-enumerates, the others mostly
		// carry words over), and the shared word queue of each splice
		// lets a busy shard use the cores an idle one leaves.
		so := e.opts
		so.RootFilter = ne.filter(si)
		so.DirtyRoots = dirty
		so.PageRank, so.Corpus = ne.pr, ne.corpus
		nix, ds, err := u.ix.ApplyDelta(ch, so)
		if err != nil {
			errs[si] = err
			return
		}
		epoch := u.epoch
		if ds.DirtyRoots > 0 || ds.WordsTouched > 0 || ds.ScoresRefreshed {
			// Postings or scores actually moved. A pure edge-ID remap
			// (another shard's structural change re-sorted the CSR)
			// rewrites storage but no observable answer, so the epoch
			// holds.
			epoch++
		}
		ne.units[si] = &unit{ix: nix, epoch: epoch}
		stats[si] = ds
	})
	for _, err := range errs {
		if err != nil {
			return nil, us, fmt.Errorf("shard: %w", err)
		}
	}

	words := map[string]struct{}{}
	for si := range stats {
		ds := &stats[si]
		if ne.units[si] == nil {
			continue // not resident on either snapshot
		}
		if ne.units[si].epoch != e.units[si].epoch {
			us.AffectedShards++
		}
		us.DirtyRoots += ds.DirtyRoots
		us.EntriesRemoved += ds.EntriesRemoved
		us.EntriesAdded += ds.EntriesAdded
		for _, w := range ds.TouchedWords {
			words[w] = struct{}{}
		}
	}
	us.TouchedWords = make([]string, 0, len(words))
	for w := range words {
		us.TouchedWords = append(us.TouchedWords, w)
	}
	sort.Strings(us.TouchedWords)
	return ne, us, nil
}
