# Same entry points CI uses (.github/workflows/ci.yml), so a green
# `make check` locally means a green pipeline.

GO ?= go

.PHONY: build test race alloc bench benchmark-module index-procs api-procs fma one-path fmt vet check cover fuzz golden loc serve clean ci-local cold-start snapshot-fixture regret-fixture load-soak cluster-soak profile-update profile-search

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation budgets (the enumerate stage; a cache-hit write, the
# client's decode of a search reply and a whole Search over HTTP) sit
# behind !race (the race detector changes allocation counts), so `race`
# alone never runs them. CI's "allocation budgets" step runs this list.
alloc:
	$(GO) test -count=1 -run Alloc ./internal/search ./internal/core ./internal/serve ./internal/api ./internal/client

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# benchmark/ is a module of its own (replace kbtable => ../), invisible to
# ./... from the root: without this a facade signature drift is caught
# only by the benchmark gate.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Neither index.Build's output nor index.ApplyDelta's may depend on the
# core count (PatternID numbering, snapshot bytes, DeltaStats): run the
# package's tests serial and parallel.
index-procs:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/index/
	GOMAXPROCS=4 $(GO) test -count=1 ./internal/index/

# The /v1 transcript (testdata/api/transcript.txt) pins every healthz and
# metrics value, and none may depend on the core count: replay it on one
# core too, beside the race run on all of them.
api-procs:
	GOMAXPROCS=1 $(GO) test -count=1 -run '^TestAPITranscript$$' .

# Off amd64, Go may fuse x*y + z into one FMA instruction, whose single
# rounding changes float bits (scores, PageRank); an explicit float64(x*y)
# forbids the fusion. Cross-compile the packages that compute scores for
# arm64 and fail on any fused multiply-add in their assembly.
FMA_PKGS = ./internal/core ./internal/rank ./internal/search ./internal/index ./internal/kg ./internal/shard .
fma:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$out"; exit 1; }; \
	  fused=$$(echo "$$out" | grep -E '\bFN?M(ADD|SUB)D\b'); \
	  if [ -n "$$fused" ]; then echo "fused multiply-adds on arm64 (wrap the product in float64()):"; echo "$$fused"; exit 1; fi; \
	  echo "no fused multiply-adds on arm64"

# One path per job. The paper's baseline is an oracle, run by the kbtable
# facade alone over one whole-graph BaselineIndex: fail if a serving layer
# names it again. A prepared query is a plan pinned over the ordinary
# search: fail if any non-test Go grows a second executor for it again.
# Every keyword query over HTTP is a plain /v1/search: fail if any
# non-test Go grows a prepared-query route, handle or error code again.
# A search reply is written by one encoder, the api codec splicing the
# answers encoded once per result: fail if internal/serve/search.go hands
# a reply to the reflective WriteJSON again. Load is driven by one driver,
# the soak in soak_test.go beside the benchmark: fail if cmd/kbload
# returns. The wire types have one name, internal/api's: fail if
# internal/serve binds an exported name to an api type again. A scatter
# partial crosses as one binary frame (shard.AppendPartial): fail if
# handleScatter writes its reply with the reflective WriteJSON again, or
# if internal/shard's non-test code imports encoding/json. A delta forks
# the dictionary and the pattern table copy-on-write: fail if
# internal/index/delta.go clones either through a snapshot round trip again.
# Tree patterns have one order, content compared in place
# (core.TreePattern.CompareContent, search.CompareTrees): fail if non-test
# Go outside the experiment harness builds a content key or a key-taking
# top-k again (ContentKey's own definition aside). Auto is resolved by
# the engine alone, inside SearchPlan/SearchDistributed on the miss that
# computes a result: fail if non-test Go in internal/serve calls the
# planner (.Plan( or PlanDistributed() again. The result cache is the one
# cache in front of the engine, and every Auto search plans from its own
# probe: fail if non-test Go reports plan-cache stats or builds a cache
# of planner statistics again. Every shard of an engine epoch shares one
# dictionary, and a query resolves once against it (shard.Engine.Dict):
# fail if non-test Go asks for any one shard's index to stand in for it
# (AnyIndex() again, or if internal/shard takes a query's Surfaces or
# Words from the first leg's output again. The engine tokenizes its corpus
# once per epoch (index.Corpus) and every shard index only reads it: fail
# if non-test Go in internal/index tokenizes outside corpus.go. A search,
# its legs and its probes take the engine's one resolution of the query:
# fail if Execute, Scatter, PlanProbe or execute in
# internal/search/executor.go resolve it again. The result cache is the
# one guard against computing a search twice, and each miss runs on its
# own request's context: fail if non-test Go in internal/serve declares a
# flight group again, or if internal/api gives SearchResponse a Coalesced
# field again. The kbsearch CLI is a client of the library, which composes
# every table answer in one place (kbtable.Engine.answers): fail if
# cmd/kbsearch imports an internal package other than api and client
# again. A planner statistic nothing reads is one nobody has measured:
# fail if non-test Go names the deleted per-keyword PostingRoots again.
# Every client call reads its reply on one path, into a pooled buffer
# (client.call): fail if non-test Go in internal/client calls io.ReadAll
# again. LINEARENUM expands a root with one kernel, the root walk
# (leScratch.walkRoot), which folds the root's whole term product at
# once: fail if internal/search/linearenum.go folds a pattern combination
# on its own again (foldRoot( or .fold().
BASELINE_FREE = internal/shard internal/cluster internal/serve internal/api cmd/kbsearch
EXECUTOR_FORK = PrepareQuery|ExecutePrepared|SearchPrepared|(shard|search)\.Prepared\b|NumCandidateRoots|SubtreeCount
PREPARED_ROUTE = PreparedID|CodePreparedGone|handlePrepare|"/prepare"
CONTENT_KEY = ContentKey\(|OfferFunc|TreeMergeKey
PLAN_CACHE = PlanCacheStats|cache\.New\[search\.PlanStats\]
API_ALIAS = ^[[:space:]]*(type[[:space:]]+[A-Z][[:alnum:]_]*[[:space:]]+=?|[A-Z][[:alnum:]_]*[[:space:]]*=)[[:space:]]*api\.[A-Z]
one-path:
	@hits=$$(grep -rnE 'AlgoBaseline|BaselineIndex|kbtable\.Baseline' --include='*.go' --exclude='*_test.go' $(BASELINE_FREE)); \
	  if [ -n "$$hits" ]; then echo "baseline paths outside the facade:"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE '$(EXECUTOR_FORK)' --include='*.go' --exclude='*_test.go' .); \
	  if [ -n "$$hits" ]; then echo "a second executor for prepared queries:"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE '$(PREPARED_ROUTE)' --include='*.go' --exclude='*_test.go' .); \
	  if [ -n "$$hits" ]; then echo "a prepared-query route beside /v1/search:"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -nE 'WriteJSON' internal/serve/search.go); \
	  if [ -n "$$hits" ]; then echo "a search reply encoded by reflection beside the api codec:"; echo "$$hits"; exit 1; fi; \
	  if [ -e cmd/kbload ]; then echo "a second load generator beside benchmark/ and the soak: cmd/kbload"; exit 1; fi; \
	  hits=$$(grep -rnE '$(API_ALIAS)' --include='*.go' --exclude='*_test.go' internal/serve); \
	  if [ -n "$$hits" ]; then echo "a second name for a wire type beside internal/api's:"; echo "$$hits"; exit 1; fi; \
	  hits=$$(awk '/^func \(n \*Node\) handleScatter\(/,/^}/' internal/cluster/node.go | grep -n 'WriteJSON'); \
	  if [ -n "$$hits" ]; then echo "a scatter partial encoded by reflection beside its binary frame:"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -lE '"encoding/json"' --include='*.go' --exclude='*_test.go' -r internal/shard); \
	  if [ -n "$$hits" ]; then echo "internal/shard imports encoding/json:"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -nE 'TableFromSnapshot\(|FromSnapshot\(' internal/index/delta.go); \
	  if [ -n "$$hits" ]; then echo "a delta clones the dictionary or pattern table through a snapshot round trip (fork them: Dict.Fork, PatternTable.Fork):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE '$(CONTENT_KEY)' --include='*.go' --exclude='*_test.go' . | grep -vE '^\./internal/bench/|^\./internal/core/pattern\.go:[0-9]+:func \(tp TreePattern\) ContentKey\('); \
	  if [ -n "$$hits" ]; then echo "a content key built outside internal/bench (compare content: CompareContent, search.CompareTrees):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE '\.Plan\(|PlanDistributed\(' --include='*.go' --exclude='*_test.go' internal/serve); \
	  if [ -n "$$hits" ]; then echo "the serve layer resolves Auto again (the engine resolves it inside SearchPlan/SearchDistributed):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE '$(PLAN_CACHE)' --include='*.go' --exclude='*_test.go' .); \
	  if [ -n "$$hits" ]; then echo "a plan cache beside the result cache (Auto plans from its own probe):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE 'AnyIndex\(' --include='*.go' --exclude='*_test.go' .; grep -rnE 'outs\[0\].*(Surfaces|Words)' --include='*.go' --exclude='*_test.go' internal/shard); \
	  if [ -n "$$hits" ]; then echo "a shard's dictionary or leg standing in for the engine's one resolution (shard.Engine.Dict):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -nE 'text\.(TokenSet|Tokenize)\(' $$(ls internal/index/*.go | grep -vE '_test\.go$$|/corpus\.go$$')); \
	  if [ -n "$$hits" ]; then echo "internal/index tokenizes outside its corpus (index.Corpus):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(awk '/^func (Execute|Scatter|PlanProbe|execute)\(/,/^}/' internal/search/executor.go | grep -n 'ResolveQuery('); \
	  if [ -n "$$hits" ]; then echo "a search, leg or probe resolves the query again (take the caller's words):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE 'flightGroup|singleflight' --include='*.go' --exclude='*_test.go' internal/serve); \
	  if [ -n "$$hits" ]; then echo "a flight group beside the result cache (a miss runs on its own request's context):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(awk '/^type SearchResponse struct/,/^}/' $$(ls internal/api/*.go | grep -v '_test\.go$$') | grep -n 'Coalesced'); \
	  if [ -n "$$hits" ]; then echo "a search reply marked coalesced again:"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE '"kbtable/internal/' --include='*.go' --exclude='*_test.go' cmd/kbsearch | grep -vE '"kbtable/internal/(api|client)"'); \
	  if [ -n "$$hits" ]; then echo "kbsearch composes or searches beside the library (use kbtable, internal/api and internal/client):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE 'PostingRoots' --include='*.go' --exclude='*_test.go' .); \
	  if [ -n "$$hits" ]; then echo "an unread per-keyword posting statistic again:"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -rnE 'io\.ReadAll\(' --include='*.go' --exclude='*_test.go' internal/client); \
	  if [ -n "$$hits" ]; then echo "a client reply read beside the one pooled read path (client.call):"; echo "$$hits"; exit 1; fi; \
	  hits=$$(grep -nE 'foldRoot\(|\.fold\(' internal/search/linearenum.go); \
	  if [ -n "$$hits" ]; then echo "LINEARENUM folds a pattern combination beside its root walk (leScratch.walkRoot):"; echo "$$hits"; exit 1; fi; \
	  echo "one baseline path, one execution path, one search route, one search encoder, one partial encoder, one load driver, one name per wire type, one pattern order, one Auto resolution, one cache, one dictionary, one tokenization, one run per miss, one answer composer, no unread statistic, one reply read path, one root kernel"

check: vet build race api-procs alloc bench benchmark-module index-procs fma one-path
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@echo "all checks passed"

# Coverage with the CI floor over the mutation + maintenance layers, the
# shard scatter-gather, the query executor, the durable store, the
# cluster transport and the shared epoch-fenced cache.
COVER_PKGS = ./internal/index,./internal/kg,./internal/shard,./internal/search,./internal/store,./internal/cluster,./internal/cache
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=$(COVER_PKGS) ./...
	$(GO) tool cover -func=cover.out | tail -1

# The same short fuzz bursts CI runs.
fuzz:
	$(GO) test -fuzz='^FuzzSearchNeverPanics$$' -fuzztime=10s -run='^$$' .
	$(GO) test -fuzz='^FuzzUpdateOps$$' -fuzztime=10s -run='^$$' .
	$(GO) test -fuzz='^FuzzIndexRoundTrip$$' -fuzztime=10s -run='^$$' .
	$(GO) test -fuzz='^FuzzWALReplay$$' -fuzztime=10s -run='^$$' ./internal/store
	$(GO) test -fuzz='^FuzzDictQueryTokens$$' -fuzztime=10s -run='^$$' ./internal/text
	$(GO) test -fuzz='^FuzzSearchResponseDecode$$' -fuzztime=10s -run='^$$' ./internal/api
	$(GO) test -fuzz='^FuzzScatterPartial$$' -fuzztime=10s -run='^$$' ./internal/shard
	$(GO) test -fuzz='^FuzzRandomKB$$' -fuzztime=10s -run='^$$' .

# Mirror of the GitHub `test` + `coverage` jobs, step for step, so a CI
# failure can be reproduced (and fixed) without pushing: gofmt, vet,
# build, examples, race tests (incl. the snapshot format gate), the API
# transcript on one core, the allocation budgets without race, the index tests at two core counts, the
# benchmark module, the arm64 fused-multiply-add check, bench smoke,
# coverage floor.
ci-local:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) build ./examples/...
	$(GO) test -race ./...
	$(MAKE) api-procs
	$(GO) test -run TestSnapshotFixture -v .
	$(MAKE) alloc index-procs benchmark-module fma one-path
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) test -coverprofile=cover.out -coverpkg=$(COVER_PKGS) ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	  echo "coverage: $${total}% (floor 85%)"; \
	  awk -v t="$$total" 'BEGIN { exit (t+0 < 85) ? 1 : 0 }'
	@echo "ci-local passed"

# The cold-start crash-recovery matrix (the CI job of the same name):
# seed, update, SIGKILL, restart from -data-dir, byte-diff the golden
# answers against an uninterrupted in-memory run — plus the group-commit
# variant (concurrent writers batched into shared fsyncs, killed
# mid-batch, every acknowledged update must survive).
cold-start:
	KBTABLE_COLDSTART=1 $(GO) test -run 'TestColdStart' -v -timeout 15m .

# The serving-path soak (the CI `load-soak` job): the group-commit
# throughput floor, then TestServeSoak: a real kbserve (2 shards, durable,
# group commit) under 30s of mixed search/update load, then a real cluster
# (coordinator, 2 owners, replica) under 30s of reads; it fails on any
# error, a p99 over 5s, or a soak that answered no search with a table.
load-soak:
	KBTABLE_PERF=1 $(GO) test -run TestGroupCommitThroughput -v ./internal/store
	KBTABLE_SOAK=1 $(GO) test -run TestServeSoak -v -timeout 15m .

# The multi-node cluster soak (the CI `cluster-soak` job): coordinator +
# 2 shard owners + WAL-shipped replica as real processes, a soak through
# the coordinator, all 20 golden answer files byte-diffed against the
# single-node goldens, one owner SIGKILLed (answers must not change),
# then the coordinator killed with the replica required to keep serving.
cluster-soak:
	KBTABLE_CLUSTER=1 $(GO) test -run TestClusterSoak -v -timeout 15m .

# Regenerate the checked-in snapshot fixture (testdata/snapshot) after
# an intentional snapshot/WAL/index wire-format change. Bump
# store.FormatVersion (and/or index.WireVersion) in the same PR.
snapshot-fixture:
	$(GO) test -run TestSnapshotFixture -update .

# Refresh the golden-corpus answer files after an intentional behavior
# change (regenerates testdata/corpus, testdata/golden and the deep
# reference dump in testdata/deep).
golden:
	$(GO) test -run TestGoldenCorpus -update .

# Re-time the Auto planner's regret fixture (testdata/planner/regret.txt):
# PE and LE, best of 3 each, on every query of kbbench's Fig. 7 (d = 2, 3,
# 4) and SynthIMDB sets at default scale, with the planner's statistics.
# About 30 s on 2 cores; run it on an idle machine. TestAutoRegretFixture
# then recomputes each set's regret from the rows without timing anything.
regret-fixture:
	$(GO) test -count=1 -timeout 90m -run '^TestAutoRegretFixture$$' -update-regret -v ./internal/bench

# CPU profile of the write path: BenchmarkApplyUpdate (structural, text
# and isolated updates on the reduced-scale wiki engine). Writes
# cpu-update.prof beside the test binary kbtable.test; read it with
# `go tool pprof -top kbtable.test cpu-update.prof`.
profile-update:
	$(GO) test -run '^$$' -bench ApplyUpdate -benchmem -cpuprofile cpu-update.prof .

# CPU profile of the read path: BenchmarkQueryLETopK (LINEARENUM-TOPK, the
# algorithm Auto runs for most search_cold queries, on the reduced wiki
# corpus, SkipTrees) and BenchmarkSearchAuto (the engine half of
# search_cold in process: Auto over a fixed workload on the 6,000-entity
# wiki, K = 10, 50 rows, tables materialized; its set-up, which generates
# the workload, shows in the profile too). Both report ns/op, B/op and
# allocs/op. Writes cpu-search.prof beside the test binary kbtable.test;
# read it with `go tool pprof -top kbtable.test cpu-search.prof`.
profile-search:
	$(GO) test -run '^$$' -bench 'QueryLETopK$$|SearchAuto$$' -benchmem -cpuprofile cpu-search.prof .

# Non-test Go lines outside benchmark/ — the size every CHANGES.md entry
# quotes (ROADMAP ground rule iv).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# Run the HTTP daemon on the built-in demo knowledge base.
serve:
	$(GO) run ./cmd/kbserve -demo -addr :8080

clean:
	$(GO) clean ./...
	rm -rf bin cover.out cpu-update.prof cpu-search.prof kbtable.test
