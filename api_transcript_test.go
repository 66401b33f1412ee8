package kbtable_test

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
	"kbtable/internal/cluster"
	"kbtable/internal/serve"
	"kbtable/internal/shard"
)

// transcript is an http.RoundTripper that serves each request in process
// on the handler registered for its URL host (one per section) and
// records the exchange: method, path, request body, status, Content-Type
// and Retry-After, and the response body, one answer table per line (a
// binary body in hex, 32 bytes per line), with machine-dependent values
// masked.
type transcript struct {
	t        *testing.T
	mu       sync.Mutex
	b        strings.Builder
	handlers map[string]http.Handler
}

func (tr *transcript) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	w := httptest.NewRecorder()
	tr.handlers[req.URL.Host].ServeHTTP(w, req)
	if req.URL.Path == "/v1/metrics" && w.Code == http.StatusOK {
		checkHistograms(tr.t, w.Body.String())
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	fmt.Fprintf(&tr.b, "\n%s %s\n", req.Method, req.URL.RequestURI())
	if len(body) > 0 {
		fmt.Fprintf(&tr.b, "> %s\n", body)
	}
	fmt.Fprintf(&tr.b, "< %d %s", w.Code, w.Header().Get("Content-Type"))
	if ra := w.Header().Get("Retry-After"); ra != "" {
		fmt.Fprintf(&tr.b, " Retry-After: %s", ra)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") && !strings.HasPrefix(ct, "text/") {
		frame := maskFrame(w.Body.Bytes())
		for len(frame) > 0 {
			n := min(32, len(frame))
			fmt.Fprintf(&tr.b, "\n< %x", frame[:n])
			frame = frame[n:]
		}
		tr.b.WriteString("\n")
		return w.Result(), nil
	}
	reply := strings.ReplaceAll(mask(w.Body.String()), `{"rank":`, "\n"+`{"rank":`)
	for _, line := range strings.Split(strings.TrimRight(reply, "\n"), "\n") {
		fmt.Fprintf(&tr.b, "\n< %s", line)
	}
	tr.b.WriteString("\n")
	return w.Result(), nil
}

// printf appends a line of the driver's own (a note, the client's view
// of an error).
func (tr *transcript) printf(format string, args ...any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fmt.Fprintf(&tr.b, format+"\n", args...)
}

// The values that depend on the machine or the moment: stage timings,
// uptime, checkpoint time, the data directory and latency histograms.
// A leg's prepare_ns is omitted when zero, so it is dropped whole.
var (
	maskedJSON    = regexp.MustCompile(`"(\w+_ms|uptime_seconds|last_checkpoint_unix|data_dir)":("[^"]*"|[-+.\deE]+)`)
	droppedJSON   = regexp.MustCompile(`"prepare_ns":\d+,`)
	maskedMetrics = regexp.MustCompile(`(?m)^(kbserve_request_duration_seconds_(?:bucket|sum)\S*) \S+$`)
)

// maskFrame zeroes the prepare_ns of a scatter frame, re-encoding it with
// its checksum; the rest of a binary reply is recorded byte for byte.
func maskFrame(b []byte) []byte {
	seq, p, err := shard.DecodePartial(b)
	if err != nil {
		return b
	}
	p.PrepareNS = 0
	return shard.AppendPartial(nil, seq, p)
}

func mask(body string) string {
	body = maskedJSON.ReplaceAllStringFunc(droppedJSON.ReplaceAllString(body, ""), func(m string) string {
		if strings.HasPrefix(m, `"retry_after_ms"`) {
			return m // the shed hint is part of the contract
		}
		key, _, _ := strings.Cut(m, ":")
		return key + ":*"
	})
	return maskedMetrics.ReplaceAllString(body, "$1 *")
}

// transcriptGraph is the paper's Figure 1 knowledge base, built in the
// order kbserve -demo builds it.
func transcriptGraph(t *testing.T) *kbtable.Graph {
	b := kbtable.NewBuilder()
	sql := b.Entity("Software", "SQL Server")
	rel := b.Entity("Model", "Relational database")
	ms := b.Entity("Company", "Microsoft")
	gates := b.Entity("Person", "Bill Gates")
	odb := b.Entity("Software", "Oracle DB")
	ordb := b.Entity("Model", "O-R database")
	oc := b.Entity("Company", "Oracle Corp")
	book := b.Entity("Book", "Handbook of Database Software")
	spr := b.Entity("Company", "Springer")
	b.Attr(sql, "Genre", rel)
	b.Attr(sql, "Developer", ms)
	b.Attr(sql, "Reference", book)
	b.TextAttr(ms, "Revenue", "US$ 77 billion")
	b.Attr(ms, "Founder", gates)
	b.Attr(odb, "Genre", ordb)
	b.Attr(odb, "Developer", oc)
	b.TextAttr(oc, "Revenue", "US$ 37 billion")
	b.Attr(book, "Publisher", spr)
	b.TextAttr(spr, "Revenue", "US$ 1 billion")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scriptedEngine fails, times out or parks the search of one query each.
type scriptedEngine struct {
	*kbtable.Engine
	parked, release chan struct{}
}

func (e scriptedEngine) SearchPlan(ctx context.Context, q string, o kbtable.SearchOptions) ([]kbtable.Answer, kbtable.PlanInfo, error) {
	switch q {
	case "springer":
		return nil, kbtable.PlanInfo{}, errors.New("injected search failure")
	case "oracle":
		return nil, kbtable.PlanInfo{}, context.DeadlineExceeded
	case "microsoft":
		e.parked <- struct{}{}
		<-e.release
	}
	return e.Engine.SearchPlan(ctx, q, o)
}

// TestAPITranscript replays one scripted /v1 client session over the
// Figure 1 knowledge base against testdata/api/transcript.txt, byte for
// byte: every route, every error code but durability and canceled, cache
// and planner behaviour, updates, the write-ahead log and the cluster
// legs. Worker and admission counts are pinned, so no line depends on
// the core count. -update-api rewrites the file.
func TestAPITranscript(t *testing.T) {
	tr := &transcript{t: t, handlers: map[string]http.Handler{}}
	ctx := context.Background()
	engine := func(o kbtable.EngineOptions) *kbtable.Engine {
		o.D, o.Workers = 3, 1
		eng, err := kbtable.NewEngine(transcriptGraph(t), o)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	var cl *client.Client
	var base string
	section := func(host, title string, h http.Handler) {
		tr.handlers[host] = h
		tr.printf("\n== %s: %s ==", host, title)
		base = "http://" + host
		cl = client.New(base, client.Config{HTTPClient: &http.Client{Transport: tr}})
	}
	note := func(lines ...string) { tr.printf("\n# %s", strings.Join(lines, "\n# ")) }
	// do records the client's view of a failed call; a 2xx reply the
	// client cannot decode fails the test.
	do := func(_ any, err error) {
		var ae *client.APIError
		switch {
		case errors.As(err, &ae) && ae.RetryAfter > 0:
			tr.printf("= client: %s, http %d, retry after %v", ae.Code, ae.Status, ae.RetryAfter)
		case errors.As(err, &ae):
			tr.printf("= client: %s, http %d", ae.Code, ae.Status)
		case err != nil:
			t.Errorf("client call: %v", err)
		}
	}
	search := func(req api.SearchRequest) *api.SearchResponse {
		resp, err := cl.Search(ctx, &req)
		do(resp, err)
		return resp
	}
	update := func(ops ...kbtable.UpdateOp) { do(cl.Update(ctx, &api.UpdateRequest{Ops: ops})) }
	raw := func(method, path, contentType, body string) {
		req := httptest.NewRequest(method, base+path, strings.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		do(tr.RoundTrip(req))
	}
	const q = "database software company revenue"
	tr.printf(`# The /v1 contract as one scripted client session over the paper's Figure 1
# knowledge base (TestAPITranscript). A call is "METHOD path", "> " its body,
# "< " the status, Content-Type and Retry-After, then the reply, one answer
# table per line, with timings, uptime, data_dir and latency buckets masked
# as *; "= " is the typed client's error. Rewrite it after a deliberate
# change: go test -run TestAPITranscript -update-api .`)

	section("plain", "Figure 1, PageRank scores, in memory, updatable",
		serve.New(serve.Config{Engine: engine(kbtable.EngineOptions{}), D: 3, MaxConcurrent: 4}).Handler())
	note("both explicit algorithms answer the running example")
	search(api.SearchRequest{Query: q, K: 3, Algorithm: "patternenum"})
	search(api.SearchRequest{Query: q, K: 3, Algorithm: "linearenum"})
	note("a cache hit is its miss's body but for cached, elapsed_ms and plan; another k misses")
	search(api.SearchRequest{Query: "Database  SOFTWARE company revenue", K: 2})
	search(api.SearchRequest{Query: q, K: 2})
	search(api.SearchRequest{Query: q, K: 4})
	note("defaulted k, d and max_rows, case, spacing and punctuation share one entry")
	search(api.SearchRequest{Query: "software company"})
	search(api.SearchRequest{Query: "software company", K: 10})
	search(api.SearchRequest{Query: "  Software\t COMPANY ", K: 10})
	search(api.SearchRequest{Query: "software company", D: 3, MaxRows: 50})
	search(api.SearchRequest{Query: "software, company!"})
	note("a query holding the cache key's separator cannot pass for another request")
	search(api.SearchRequest{Query: "x|patternenum"})
	search(api.SearchRequest{Query: "x", Algorithm: "patternenum"})
	note("auto reports the resolved algorithm and its planner decision; auto and an explicit",
		"algorithm keep entries of their own, with the same answers, each with its own plan")
	auto := search(api.SearchRequest{Query: q, Algorithm: "auto"})
	search(api.SearchRequest{Query: q, Algorithm: auto.Algorithm})
	search(api.SearchRequest{Query: q, Algorithm: "auto"})
	search(api.SearchRequest{Query: "company revenue", Algorithm: "pe"})
	search(api.SearchRequest{Query: "company revenue", Algorithm: "auto"})
	search(api.SearchRequest{Query: "software company", Algorithm: "le"})
	note("invalid searches answer 400 bad_request, a non-JSON body 415; a body without a",
		"Content-Type is read as JSON")
	search(api.SearchRequest{})
	search(api.SearchRequest{Query: "software", Algorithm: "dijkstra"})
	search(api.SearchRequest{Query: "software", Algorithm: "baseline"})
	search(api.SearchRequest{Query: "software", D: 5})
	search(api.SearchRequest{Query: "software", K: 100000})
	search(api.SearchRequest{Query: "software", Priority: "urgent"})
	raw(http.MethodPost, "/v1/search", "application/json", `{"query":`)
	raw(http.MethodPost, "/v1/search", "application/json", `{"prepared_id":"p0-1"}`)
	raw(http.MethodPost, "/v1/search", "text/plain", `{"query":"software"}`)
	raw(http.MethodPost, "/v1/search", "", `{"query":"software"}`)
	note("unknown paths, unversioned ones, the removed /v1/prepare and the cluster legs",
		"of a server that is not a node answer 404; wrong methods 405")
	raw(http.MethodGet, "/v1/nope", "", "")
	raw(http.MethodGet, "/search", "", "")
	raw(http.MethodPost, "/v1/prepare", "application/json", `{"query":"software"}`)
	raw(http.MethodPost, "/v1/cluster/probe", "application/json", `{"shard":0,"query":"software"}`)
	raw(http.MethodGet, "/v1/search", "", "")
	raw(http.MethodGet, "/v1/update", "", "")
	raw(http.MethodPost, "/v1/shards", "", "")
	raw(http.MethodPost, "/v1/wal/segments", "", "")
	raw(http.MethodDelete, "/v1/healthz", "", "")
	raw(http.MethodPost, "/v1/metrics", "", "")
	note("no write-ahead log to ship without a store")
	do(cl.WALSegments(ctx, 0, 0))
	note("planner counters, result cache, index and shards")
	do(cl.Health(ctx))
	note("an update publishes the next epoch; the new entity answers there")
	search(api.SearchRequest{Query: "postgres database"})
	search(api.SearchRequest{Query: "publisher book"})
	var u kbtable.Update
	u.AddAttr(u.AddEntity("Software", "Postgres"), "Genre", 1) // Relational database
	update(u.Ops...)
	search(api.SearchRequest{Query: "postgres database"})
	note("PageRank moved: the update dropped every cached entry, so a query it did not",
		"touch recomputes at epoch 1 too")
	search(api.SearchRequest{Query: "publisher book"})
	note("a text-only edit cannot move PageRank: entries off its words stay cached")
	update(kbtable.UpdateOp{Op: "set_text", Node: kbtable.Ref(5), Text: "Object relational model"}) // O-R database
	search(api.SearchRequest{Query: "publisher book"})
	note("invalid updates answer 400 and publish nothing")
	update()
	update(kbtable.UpdateOp{Op: "zap"})
	update(kbtable.UpdateOp{Op: "remove_entity", Node: kbtable.Ref(4096)})
	update(kbtable.UpdateOp{Op: "remove_entity"})
	do(cl.Health(ctx))
	do(cl.Shards(ctx))
	do(cl.Metrics(ctx))

	section("readonly", "Figure 1 over 3 shards, read-only, default algorithm auto",
		serve.New(serve.Config{Engine: engine(kbtable.EngineOptions{Shards: 3}), D: 3, MaxConcurrent: 4,
			ReadOnly: true, DefaultAlgorithm: "auto"}).Handler())
	note("a request without an algorithm runs the default, auto; every reply carries the",
		"unsharded engine's answers")
	flat := engine(kbtable.EngineOptions{})
	for _, req := range []api.SearchRequest{
		{Query: "database software"},
		{Query: "database software", Algorithm: "linearenum"},
		{Query: "software company revenue", Algorithm: "auto"},
	} {
		got := search(req)
		algo, _ := api.ParseAlgorithm(cmp.Or(req.Algorithm, "auto"))
		answers, _, err := flat.SearchPlan(ctx, req.Query, kbtable.SearchOptions{K: 10, Algorithm: algo, MaxRowsPerTable: 50})
		want := make([]api.SearchAnswer, len(answers))
		for i, a := range answers {
			want[i] = api.SearchAnswer(a)
		}
		if err != nil || got == nil || !reflect.DeepEqual(got.Answers, want) {
			t.Errorf("%+v over 3 shards: %+v, want the unsharded engine's %+v (%v)", req, got, want, err)
		}
	}
	note("updates are closed to clients")
	update(kbtable.UpdateOp{Op: "add_entity", Type: "Software", Text: "Postgres"})
	do(cl.Health(ctx))

	dir := t.TempDir()
	st, err := kbtable.OpenStoreOpts(dir, kbtable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	durable := engine(kbtable.EngineOptions{UniformPageRank: true})
	if _, err := durable.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Engine: durable, D: 3, MaxConcurrent: 4, Store: st, CheckpointEvery: -1})
	section("durable", "Figure 1, uniform PageRank, write-ahead log, checkpoints on demand only", srv.Handler())
	note("uniform PageRank keeps an update's score effects on the words it touched: only",
		"the founder query's entry is dropped (invalidated_cache 1)")
	search(api.SearchRequest{Query: "founder person"})
	search(api.SearchRequest{Query: "publisher book"})
	u = kbtable.Update{}
	u.AddAttr(6, "Founder", u.AddEntity("Person", "Larry Ellison")) // Oracle Corp
	update(u.Ops...)
	search(api.SearchRequest{Query: "publisher book"})
	search(api.SearchRequest{Query: "founder person"})
	update(kbtable.UpdateOp{Op: "add_entity", Type: "Company", Text: "Initrode"})
	update(kbtable.UpdateOp{Op: "set_text", Node: kbtable.Ref(0), Text: "SQL Server 2014"})
	note("the log ships in pages; a cursor past the tail reads nothing")
	do(cl.WALSegments(ctx, 0, 0))
	do(cl.WALSegments(ctx, 0, 1))
	do(cl.WALSegments(ctx, 3, 0))
	raw(http.MethodGet, "/v1/wal/segments?after=x", "", "")
	raw(http.MethodGet, "/v1/wal/segments?max=0", "", "")
	do(cl.Health(ctx))
	do(cl.Metrics(ctx))
	note("CheckpointNow truncates the log: a cursor before the snapshot answers 410 wal_gap")
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	update(kbtable.UpdateOp{Op: "add_entity", Type: "Company", Text: "Hooli"})
	do(cl.WALSegments(ctx, 0, 0))
	do(cl.WALSegments(ctx, 3, 0))
	do(cl.Health(ctx))
	live := search(api.SearchRequest{Query: "software company revenue"})

	st.Close() // a crash: no final checkpoint
	rec, st, rs, err := kbtable.OpenDirOpts(dir, kbtable.EngineOptions{Workers: 1}, kbtable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	section("recovered", fmt.Sprintf("the durable directory reopened after a crash (%d record replayed, torn tail %v)", rs.Replayed, rs.TornTail),
		serve.New(serve.Config{Engine: rec, D: 3, MaxConcurrent: 4, Store: st}).Handler())
	note("the recovered engine answers as the live one did, at its own epoch 0")
	if got := search(api.SearchRequest{Query: "software company revenue"}); got == nil || !reflect.DeepEqual(got.Answers, live.Answers) {
		t.Errorf("recovered answers %+v, live %+v", got, live)
	}
	do(cl.Health(ctx))

	dec := scriptedEngine{Engine: engine(kbtable.EngineOptions{}), parked: make(chan struct{}), release: make(chan struct{})}
	section("decorated", "one execution slot, no queue; the engine fails \"springer\", times out \"oracle\" and parks \"microsoft\"",
		serve.New(serve.Config{Engine: dec, D: 3, MaxConcurrent: 1, MaxQueue: -1}).Handler())
	search(api.SearchRequest{Query: "springer"})
	search(api.SearchRequest{Query: "oracle"})
	note("while \"microsoft\" holds the slot, the next search is shed with a retry hint")
	parkedDone := make(chan struct{})
	go func() { defer close(parkedDone); search(api.SearchRequest{Query: "microsoft"}) }()
	select {
	case <-dec.parked:
	case <-parkedDone:
		t.Fatal(`the "microsoft" search returned without parking`)
	}
	search(api.SearchRequest{Query: "database software"})
	close(dec.release)
	<-parkedDone
	do(cl.Health(ctx))

	node := cluster.NewNode(serve.Config{Engine: engine(kbtable.EngineOptions{Shards: 2, OwnedShards: []int{0}}),
		D: 3, MaxConcurrent: 4, ReadOnly: true}, "node", "n0")
	section("node", "a cluster owner node hosting shard 0 of 2", node.Handler())
	note("a leg pinned to a sequence the node has not applied answers 409 stale_epoch")
	do(cl.ProbeShard(ctx, &api.ClusterProbeRequest{Shard: 0, Query: "software revenue", K: 5, Seq: 7}))
	do(cl.ProbeShard(ctx, &api.ClusterProbeRequest{Shard: 0, Query: "software revenue", K: 5}))
	note("a scatter leg answers one binary frame (magic KBP1, CRC-32C sealed), in hex with prepare_ns zeroed")
	do(cl.ScatterShard(ctx, &api.ClusterScatterRequest{Shard: 0, Query: "software revenue", Algorithm: "patternenum", K: 5}))
	note("a leg under auto or for a shard the node does not host is the caller's mistake")
	do(cl.ScatterShard(ctx, &api.ClusterScatterRequest{Shard: 0, Query: "software revenue", Algorithm: "auto"}))
	do(cl.ScatterShard(ctx, &api.ClusterScatterRequest{Shard: 1, Query: "software revenue", Algorithm: "patternenum"}))
	raw(http.MethodGet, "/v1/cluster/scatter", "", "")
	note("a partial engine serves legs, not whole queries, and keeps serving")
	search(api.SearchRequest{Query: "software revenue"})
	do(cl.Health(ctx))
	do(cl.Shards(ctx))

	got := tr.b.String()
	checkTranscriptCoverage(t, got)
	path := filepath.Join("testdata", "api", "transcript.txt")
	if *updateAPIGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestAPITranscript -update-api .` to record it)", err)
	}
	if got != string(want) {
		gl := append(strings.Split(got, "\n"), "(end of transcript)")
		wl := append(strings.Split(string(want), "\n"), "(end of transcript)")
		i := 0
		for gl[i] == wl[i] {
			i++
		}
		t.Fatalf("the /v1 session drifted from %s at line %d:\n-%s\n+%s\nif the change is deliberate, rerun with -update-api and call it out in the changelog",
			path, i+1, wl[i], gl[i])
	}
}

// checkHistograms holds each histogram of a /v1/metrics body, whose
// values the transcript masks, to cumulative buckets and a +Inf bucket
// equal to the series' count.
func checkHistograms(t *testing.T, text string) {
	var prev, inf int64
	for _, line := range strings.Split(text, "\n") {
		name, value, _ := strings.Cut(line, " ")
		n, err := strconv.ParseInt(value, 10, 64)
		switch {
		case strings.HasPrefix(line, "#") || err != nil:
		case strings.Contains(name, "_bucket{"):
			if n < prev {
				t.Errorf("metrics: bucket below its predecessor: %q", line)
			}
			prev = n
			if strings.Contains(name, `le="+Inf"`) {
				inf, prev = n, 0
			}
		case strings.HasSuffix(strings.Split(name, "{")[0], "_count") && n != inf:
			t.Errorf("metrics: %q, but the +Inf bucket holds %d", line, inf)
		}
	}
}

// checkTranscriptCoverage holds the transcript to the contract's lists in
// testdata/api/v1.golden: every endpoint answers 2xx at least once and
// every error code appears, but durability (it needs a failing disk) and
// canceled (a client disconnect).
func checkTranscriptCoverage(t *testing.T, transcript string) {
	golden, err := os.ReadFile(filepath.Join("testdata", "api", "v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, codes, _ := strings.Cut(string(golden), "\nerror codes:\n")
	_, endpoints, _ := strings.Cut(string(golden), "\nendpoints")
	codes, _, _ = strings.Cut(codes, "\n\n")
	endpoints, _, _ = strings.Cut(endpoints, "\n\n")
	for _, c := range strings.Fields(codes) {
		if c != api.CodeDurability && c != api.CodeCanceled && !strings.Contains(transcript, `"code":"`+c+`"`) {
			t.Errorf("no reply in the transcript carries error code %s", c)
		}
	}
	for _, line := range strings.Split(endpoints, "\n")[1:] {
		f := strings.Fields(line)
		path, _, _ := strings.Cut(f[1], "?")
		if !regexp.MustCompile(`\n` + f[0] + ` ` + regexp.QuoteMeta(path) + `\S*\n(> .*\n)?< 2`).MatchString(transcript) {
			t.Errorf("no %s %s call in the transcript answers 2xx", f[0], path)
		}
	}
}
