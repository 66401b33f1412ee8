// Package bench reproduces every table and figure of the paper's
// experimental study (Section 5 and Appendix C) on the synthetic Wiki and
// IMDB stand-ins. Each RunFigN function regenerates one artifact as a
// formatted table; cmd/kbbench runs the full suite and bench_test.go wraps
// each experiment in a testing.B benchmark.
package bench

import (
	"fmt"
	"sync"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/kg"
	"kbtable/internal/search"
)

// Config scales the experiment suite. The defaults run the full suite in
// minutes on a laptop. The paper's absolute dataset sizes are out of
// scope, since its Wiki and IMDB dumps are replaced by synthetic stand-ins
// (internal/dataset); the comparative shapes are in scope.
type Config struct {
	// WikiEntities / WikiTypes scale SynthWiki; defaults 12000 / 120.
	WikiEntities int
	WikiTypes    int
	// IMDBMovies scales SynthIMDB; default 6000.
	IMDBMovies int
	// PerM is the number of workload queries per keyword count 1..MaxM;
	// default 20 (the paper uses 50).
	PerM int
	// MaxM is the maximum keyword count; default 10.
	MaxM int
	// K is the top-k cutoff; default 100 like the paper.
	K int
	// Ds are the height thresholds exercised by Figures 6 and 7;
	// default {2, 3, 4}.
	Ds []int
	// BaselineTreeCap caps the subtrees the baseline dictionary stores per
	// pattern during timed runs, protecting memory on explosive queries
	// without changing scores; default 8.
	BaselineTreeCap int
	// SkipBaselineOver skips the baseline on queries with more valid
	// subtrees than this (it would dominate suite runtime); default 1e6.
	SkipBaselineOver int64
	// SkipOver excludes queries with more valid subtrees than this from
	// the timed experiments entirely; exact enumeration on them is the
	// paper's 10^6-ms regime. Default 3e6.
	SkipOver int64
	// Seed drives dataset and workload generation; default 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.WikiEntities == 0 {
		c.WikiEntities = 12000
	}
	if c.WikiTypes == 0 {
		c.WikiTypes = 120
	}
	if c.IMDBMovies == 0 {
		c.IMDBMovies = 6000
	}
	if c.PerM == 0 {
		c.PerM = 20
	}
	if c.MaxM == 0 {
		c.MaxM = 10
	}
	if c.K == 0 {
		c.K = 100
	}
	if len(c.Ds) == 0 {
		c.Ds = []int{2, 3, 4}
	}
	if c.BaselineTreeCap == 0 {
		c.BaselineTreeCap = 8
	}
	if c.SkipBaselineOver == 0 {
		c.SkipBaselineOver = 1_000_000
	}
	if c.SkipOver == 0 {
		c.SkipOver = 3_000_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Env lazily builds and caches the graphs, indexes, baselines and query
// workloads the experiments share.
type Env struct {
	Cfg Config

	mu          sync.Mutex
	wiki        *kg.Graph
	wikiIdx     map[int]*index.Index
	wikiBl      map[int]*search.BaselineIndex
	wikiQueries []dataset.Query
	imdb        *kg.Graph
	imdbIdx     *index.Index
	imdbBl      *search.BaselineIndex
	imdbQueries []dataset.Query
}

// NewEnv returns an Env with the given (defaulted) configuration.
func NewEnv(cfg Config) *Env {
	return &Env{
		Cfg:     cfg.withDefaults(),
		wikiIdx: map[int]*index.Index{},
		wikiBl:  map[int]*search.BaselineIndex{},
	}
}

// Wiki returns the SynthWiki graph.
func (e *Env) Wiki() *kg.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wiki == nil {
		e.wiki = dataset.SynthWiki(dataset.WikiConfig{
			Entities: e.Cfg.WikiEntities,
			Types:    e.Cfg.WikiTypes,
			Seed:     e.Cfg.Seed,
		})
	}
	return e.wiki
}

// WikiIndex returns the path index over Wiki at height threshold d.
func (e *Env) WikiIndex(d int) *index.Index {
	g := e.Wiki()
	e.mu.Lock()
	defer e.mu.Unlock()
	if ix, ok := e.wikiIdx[d]; ok {
		return ix
	}
	ix, err := index.Build(g, index.Options{D: d})
	if err != nil {
		panic(fmt.Sprintf("bench: wiki index d=%d: %v", d, err))
	}
	e.wikiIdx[d] = ix
	return ix
}

// WikiBaseline returns the baseline match index over Wiki at threshold d.
func (e *Env) WikiBaseline(d int) *search.BaselineIndex {
	g := e.Wiki()
	e.mu.Lock()
	defer e.mu.Unlock()
	if bl, ok := e.wikiBl[d]; ok {
		return bl
	}
	bl, err := search.NewBaseline(g, search.BaselineOptions{D: d})
	if err != nil {
		panic(fmt.Sprintf("bench: wiki baseline: %v", err))
	}
	e.wikiBl[d] = bl
	return bl
}

// WikiQueries returns the Wiki workload (PerM queries per m in 1..MaxM).
func (e *Env) WikiQueries() []dataset.Query {
	g := e.Wiki()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wikiQueries == nil {
		e.wikiQueries = dataset.Workload(g, dataset.WorkloadConfig{
			PerM: e.Cfg.PerM, MaxM: e.Cfg.MaxM, Seed: e.Cfg.Seed,
		})
	}
	return e.wikiQueries
}

// IMDB returns the SynthIMDB graph.
func (e *Env) IMDB() *kg.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.imdb == nil {
		e.imdb = dataset.SynthIMDB(dataset.IMDBConfig{Movies: e.Cfg.IMDBMovies, Seed: e.Cfg.Seed})
	}
	return e.imdb
}

// IMDBIndex returns the path index over IMDB at d=3 (paths never exceed 3
// nodes, so larger d changes nothing — Section 5.1).
func (e *Env) IMDBIndex() *index.Index {
	g := e.IMDB()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.imdbIdx == nil {
		ix, err := index.Build(g, index.Options{D: 3})
		if err != nil {
			panic(fmt.Sprintf("bench: imdb index: %v", err))
		}
		e.imdbIdx = ix
	}
	return e.imdbIdx
}

// IMDBBaseline returns the baseline match index over IMDB.
func (e *Env) IMDBBaseline() *search.BaselineIndex {
	g := e.IMDB()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.imdbBl == nil {
		bl, err := search.NewBaseline(g, search.BaselineOptions{D: 3})
		if err != nil {
			panic(fmt.Sprintf("bench: imdb baseline: %v", err))
		}
		e.imdbBl = bl
	}
	return e.imdbBl
}

// IMDBQueries returns the IMDB workload.
func (e *Env) IMDBQueries() []dataset.Query {
	g := e.IMDB()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.imdbQueries == nil {
		e.imdbQueries = dataset.Workload(g, dataset.WorkloadConfig{
			PerM: e.Cfg.PerM, MaxM: e.Cfg.MaxM, Seed: e.Cfg.Seed + 7,
		})
	}
	return e.imdbQueries
}
