package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
	"kbtable/internal/serve"
)

// demoGraph builds the small Figure 1 knowledge base used by the serve
// tests: two software vendors with revenue literals.
func demoGraph(t *testing.T) *kbtable.Graph {
	t.Helper()
	b := kbtable.NewBuilder()
	sql := b.Entity("Software", "SQL Server")
	ms := b.Entity("Company", "Microsoft")
	or := b.Entity("Company", "Oracle Corp")
	odb := b.Entity("Software", "Oracle DB")
	b.Attr(sql, "Developer", ms)
	b.Attr(odb, "Developer", or)
	b.TextAttr(ms, "Revenue", "US$ 77 billion")
	b.TextAttr(or, "Revenue", "US$ 37 billion")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loadCorpus rebuilds a golden corpus dump (testdata/corpus at the
// module root) through the public Builder API — the same format the
// module-level golden suite uses.
func loadCorpus(t *testing.T, path string) *kbtable.Graph {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	b := kbtable.NewBuilder()
	ids := map[int64]kbtable.EntityID{}
	for ln, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, " ", 4)
		if len(parts) != 4 {
			t.Fatalf("corpus line %d malformed: %q", ln+1, line)
		}
		switch parts[0] {
		case "E":
			id, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				t.Fatalf("corpus line %d: %v", ln+1, err)
			}
			ids[id] = b.Entity(parts[2], parts[3])
		case "A":
			src, err1 := strconv.ParseInt(parts[1], 10, 64)
			dst, err2 := strconv.ParseInt(parts[3], 10, 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("corpus line %d malformed: %q", ln+1, line)
			}
			b.Attr(ids[src], parts[2], ids[dst])
		case "T":
			src, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				t.Fatalf("corpus line %d: %v", ln+1, err)
			}
			b.TextAttr(ids[src], parts[2], parts[3])
		default:
			t.Fatalf("corpus line %d malformed: %q", ln+1, line)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// renderWire reproduces the module-level golden rendering from wire
// answers: the response's full_columns field carries the formal column
// names, and encoding/json round-trips float64 scores exactly, so the
// bytes can match the checked-in goldens bit for bit.
func renderWire(query string, answers []api.SearchAnswer) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\nanswers: %d\n", query, len(answers))
	for _, a := range answers {
		fmt.Fprintf(&sb, "\n#%d score=%.17g rows=%d\n%s\n", a.Rank, a.Score, a.NumRows, a.Pattern)
		sb.WriteString(strings.Join(a.FullColumns, " | "))
		sb.WriteByte('\n')
		for _, row := range a.Rows {
			sb.WriteString(strings.Join(row, " | "))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// goldenQueries mirrors the module-level golden workload (golden_test.go).
var goldenQueries = map[string][]string{
	"wiki": {
		"washington", "washington city", "population river",
		"software company revenue", "database university", "album band",
		"movie actor director", "capital state", "book author publisher",
		"school season",
	},
	"imdb": {
		"taylor", "night star", "king taylor", "star man", "man secret",
		"story movie", "king movie", "star wilson", "night moore",
		"man director",
	},
}

const (
	goldenK    = 10
	goldenRows = 6
)

// testCluster is an in-process 3-node cluster (2 owners + 1 replica)
// plus a coordinator, all over real HTTP.
type testCluster struct {
	coord   *httptest.Server
	owners  []*httptest.Server
	replica *httptest.Server
	router  *Router
	nodes   []*Node
	cl      *client.Client
	eng     *kbtable.Engine // the coordinator's full engine
}

// startCluster partitions g into 3 shards: owner n0 hosts shards 0-1,
// owner n1 hosts shard 2, r0 is a complete replica, and the
// coordinator holds the full engine and scatters legs through the
// router. The coordinator's result cache is disabled so every search
// exercises the scatter path.
func startCluster(t *testing.T, g *kbtable.Graph) *testCluster {
	t.Helper()
	const shards = 3
	build := func(owned []int) *kbtable.Engine {
		eng, err := kbtable.NewEngine(g, kbtable.EngineOptions{D: 3, Shards: shards, OwnedShards: owned})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	tc := &testCluster{}
	for i, owned := range [][]int{{0, 1}, {2}} {
		node := NewNode(serve.Config{Engine: build(owned), D: 3, CacheSize: -1, ReadOnly: true}, "node", fmt.Sprintf("n%d", i))
		ts := httptest.NewServer(node.Handler())
		t.Cleanup(ts.Close)
		tc.nodes = append(tc.nodes, node)
		tc.owners = append(tc.owners, ts)
	}
	replica := NewNode(serve.Config{Engine: build(nil), D: 3, CacheSize: -1, ReadOnly: true}, "replica", "r0")
	tc.replica = httptest.NewServer(replica.Handler())
	t.Cleanup(tc.replica.Close)
	tc.nodes = append(tc.nodes, replica)

	members, err := ParseMembership(fmt.Sprintf("n0 %s shards=0-1; n1 %s shards=2; r0 %s replica",
		tc.owners[0].URL, tc.owners[1].URL, tc.replica.URL))
	if err != nil {
		t.Fatal(err)
	}
	tc.router = NewRouter("c0", members)
	tc.eng = build(nil)
	coordSrv := serve.New(serve.Config{
		Engine: tc.eng, D: 3, CacheSize: -1,
		Distributor: tc.router, Cluster: tc.router.Health,
	})
	tc.coord = httptest.NewServer(coordSrv.Handler())
	t.Cleanup(tc.coord.Close)
	tc.cl = client.New(tc.coord.URL)
	return tc
}

// TestClusterGoldenByteIdentical scatters every golden query through a
// 3-node cluster and byte-compares the HTTP answers against the
// checked-in golden files — then kills one owner and requires the same
// bytes again via local fallback.
func TestClusterGoldenByteIdentical(t *testing.T) {
	for _, corpus := range []string{"wiki", "imdb"} {
		corpus := corpus
		t.Run(corpus, func(t *testing.T) {
			g := loadCorpus(t, filepath.Join("..", "..", "testdata", "corpus", corpus+".txt"))
			tc := startCluster(t, g)

			check := func(stage string) {
				for qi, q := range goldenQueries[corpus] {
					goldenPath := filepath.Join("..", "..", "testdata", "golden",
						fmt.Sprintf("%s_%02d_%s.golden", corpus, qi+1, strings.ReplaceAll(q, " ", "-")))
					want, err := os.ReadFile(goldenPath)
					if err != nil {
						t.Fatal(err)
					}
					for _, algo := range []string{"patternenum", "linearenum", "auto", "baseline"} {
						resp, err := tc.cl.Search(context.Background(), &api.SearchRequest{
							Query: q, K: goldenK, MaxRows: goldenRows, Algorithm: algo,
						})
						if err != nil {
							t.Fatalf("%s: %q (%s): %v", stage, q, algo, err)
						}
						if got := renderWire(q, resp.Answers); got != string(want) {
							t.Errorf("%s: %q (%s) diverges from %s", stage, q, algo, goldenPath)
						}
					}
				}
			}

			check("full cluster")
			health := tc.router.Health()
			var remote, fallback uint64
			for _, n := range health.Nodes {
				remote += n.Remote
				fallback += n.LocalFallback
			}
			if remote == 0 {
				t.Fatal("no shard legs executed remotely — the scatter path was not exercised")
			}
			if fallback != 0 {
				t.Fatalf("healthy cluster fell back locally %d times", fallback)
			}

			// Kill owner n1: its shard legs fail over to the replica (or
			// re-run on the coordinator), with identical bytes.
			tc.owners[1].Close()
			check("owner n1 down")

			// Kill the replica too: now shard 2 has no live candidate and
			// the coordinator re-runs those legs on its own engine.
			tc.replica.Close()
			check("owner n1 and replica down")
			health = tc.router.Health()
			fallback = 0
			for _, n := range health.Nodes {
				fallback += n.LocalFallback
			}
			if fallback == 0 {
				t.Fatal("expected local fallbacks after killing shard 2's owners")
			}
		})
	}
}

// TestClusterSampledMatchesCoordinator pins that a sampled LinearEnum
// query answers through the router exactly as through the coordinator's
// own SearchPlan. The leg wire carries no Λ/ρ/seed, so an owner would
// run its leg exact while a local leg samples; sampled legs therefore
// never leave the coordinator.
func TestClusterSampledMatchesCoordinator(t *testing.T) {
	g := loadCorpus(t, filepath.Join("..", "..", "testdata", "corpus", "wiki.txt"))
	tc := startCluster(t, g)
	ctx := context.Background()
	for _, q := range goldenQueries["wiki"] {
		opts := kbtable.SearchOptions{K: goldenK, MaxRowsPerTable: goldenRows, Algorithm: kbtable.LinearEnum, Lambda: 1, Rho: 0.3, Seed: 7}
		want, _, err := tc.eng.SearchPlan(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tc.eng.SearchDistributed(ctx, tc.router, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q: sampled answers through the router differ from SearchPlan", q)
		}
	}
}

// TestClusterReplicationAndFailover ships WAL records from a durable
// coordinator to owners and a replica, verifies followers converge and
// scatter legs work at the advanced sequence, then kills an owner and
// the coordinator and asserts the replica still serves epoch-consistent
// reads.
func TestClusterReplicationAndFailover(t *testing.T) {
	graph := demoGraph(t)

	const shards = 2
	build := func(owned []int) *kbtable.Engine {
		eng, err := kbtable.NewEngine(graph, kbtable.EngineOptions{D: 3, Shards: shards, OwnedShards: owned})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// Durable coordinator: WAL from seq 0, checkpoints disabled so the
	// full history stays shippable.
	dir := t.TempDir()
	coordEng := build(nil)
	store, err := kbtable.OpenStoreOpts(dir, kbtable.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := coordEng.Checkpoint(store); err != nil {
		t.Fatal(err)
	}

	var owners []*httptest.Server
	var nodes []*Node
	for i, owned := range [][]int{{0}, {1}} {
		node := NewNode(serve.Config{Engine: build(owned), D: 3, CacheSize: -1, ReadOnly: true}, "node", fmt.Sprintf("n%d", i))
		ts := httptest.NewServer(node.Handler())
		t.Cleanup(ts.Close)
		nodes = append(nodes, node)
		owners = append(owners, ts)
	}
	replica := NewNode(serve.Config{Engine: build(nil), D: 3, CacheSize: -1, ReadOnly: true}, "replica", "r0")
	replicaTS := httptest.NewServer(replica.Handler())
	t.Cleanup(replicaTS.Close)
	nodes = append(nodes, replica)

	members, err := ParseMembership(fmt.Sprintf("n0 %s shards=0; n1 %s shards=1; r0 %s replica",
		owners[0].URL, owners[1].URL, replicaTS.URL))
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter("c0", members)
	router.SeqFn = func() uint64 { return store.Stats().LastSeq }
	coordSrv := serve.New(serve.Config{
		Engine: coordEng, D: 3, CacheSize: -1, Store: store, CheckpointEvery: -1,
		Distributor: router, Cluster: router.Health,
	})
	coordTS := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(coordTS.Close)

	for _, n := range nodes {
		n.StartReplication(coordTS.URL, 5*time.Millisecond)
		defer n.StopReplication()
	}

	// Three update batches through the coordinator.
	cl := client.New(coordTS.URL)
	for i := 0; i < 3; i++ {
		var u kbtable.Update
		e := u.AddEntity("Software", fmt.Sprintf("ClusterDB %d", i))
		u.AddTextAttr(e, "Revenue", "US$ 1 billion")
		resp, err := cl.Update(context.Background(), &api.UpdateRequest{Ops: u.Ops})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Epoch != uint64(i+1) {
			t.Fatalf("update %d published epoch %d", i, resp.Epoch)
		}
	}

	// Followers converge on the coordinator's WAL position.
	wantSeq := store.Stats().LastSeq
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for n.Seq() != wantSeq {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at seq %d, want %d (health %+v)", n.Seq(), wantSeq, n.Health().Replication)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// A scattered search at the advanced sequence: the nodes accept the
	// pinned seq and serve their legs remotely.
	req := &api.SearchRequest{Query: "software revenue", K: 5, Algorithm: "patternenum"}
	coordResp, err := cl.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var remote uint64
	for _, n := range router.Health().Nodes {
		remote += n.Remote
	}
	if remote == 0 {
		t.Fatal("no remote legs after replication converged")
	}

	// The replica answers the same reads on its replayed state.
	repResp, err := client.New(replicaTS.URL).Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if repResp.Epoch != coordResp.Epoch {
		t.Fatalf("replica epoch %d, coordinator epoch %d", repResp.Epoch, coordResp.Epoch)
	}
	if got, want := renderWire(req.Query, repResp.Answers), renderWire(req.Query, coordResp.Answers); got != want {
		t.Fatalf("replica answers diverge from coordinator:\nreplica:\n%s\ncoordinator:\n%s", got, want)
	}

	// Replica health reports the replication position.
	rh := replica.Health()
	if rh.Replication == nil || rh.Replication.Seq != wantSeq || rh.Replication.Lag != 0 {
		t.Fatalf("replica replication health: %+v", rh.Replication)
	}

	// Failover: owner n0 and the coordinator die; the replica keeps
	// serving the same epoch-consistent reads, and its update surface
	// stays off (it is read-only — writes belonged to the coordinator).
	owners[0].Close()
	coordTS.Close()
	repResp2, err := client.New(replicaTS.URL).Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if repResp2.Epoch != coordResp.Epoch {
		t.Fatalf("replica epoch drifted to %d after coordinator death", repResp2.Epoch)
	}
	if got, want := renderWire(req.Query, repResp2.Answers), renderWire(req.Query, coordResp.Answers); got != want {
		t.Fatal("replica answers changed after coordinator death")
	}
	var u kbtable.Update
	u.AddEntity("Software", "should not land")
	_, err = client.New(replicaTS.URL).Update(context.Background(), &api.UpdateRequest{Ops: u.Ops})
	if client.Code(err) != api.CodeReadOnly {
		t.Fatalf("replica accepted a write (err=%v)", err)
	}
}

// TestStaleSeqRefused pins the consistency handshake: a leg pinned to
// a sequence the node has not applied is refused with stale_epoch.
func TestStaleSeqRefused(t *testing.T) {
	eng, err := kbtable.NewEngine(demoGraph(t), kbtable.EngineOptions{D: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(serve.Config{Engine: eng, D: 3, ReadOnly: true}, "node", "n0")
	ts := httptest.NewServer(node.Handler())
	t.Cleanup(ts.Close)

	cl := client.New(ts.URL)
	_, err = cl.ProbeShard(context.Background(), &api.ClusterProbeRequest{
		Shard: 0, Query: "software", K: 5, Seq: 7,
	})
	if !client.IsStaleEpoch(err) {
		t.Fatalf("want stale_epoch, got %v", err)
	}
	if _, err := cl.ProbeShard(context.Background(), &api.ClusterProbeRequest{
		Shard: 0, Query: "software", K: 5, Seq: 0,
	}); err != nil {
		t.Fatalf("matching seq refused: %v", err)
	}
}

// TestPartialNodeRefusesWholeQueries pins that an owner node — a partial
// engine hosting one shard of two — answers whole-query requests with the
// 501 not_implemented envelope and keeps serving afterwards. Before the
// guard, "auto" and prepare dereferenced the non-resident shard 1 inside
// a scatter goroutine, which net/http cannot recover: the process died.
func TestPartialNodeRefusesWholeQueries(t *testing.T) {
	eng, err := kbtable.NewEngine(demoGraph(t), kbtable.EngineOptions{D: 3, Shards: 2, OwnedShards: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(serve.Config{Engine: eng, D: 3, ReadOnly: true}, "node", "n0")
	ts := httptest.NewServer(node.Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	ctx := context.Background()

	for _, algo := range []string{"patternenum", "auto"} {
		_, err := cl.Search(ctx, &api.SearchRequest{Query: "software revenue", Algorithm: algo})
		if ae, ok := err.(*client.APIError); !ok || ae.Status != 501 || ae.Code != api.CodeNotImplemented {
			t.Errorf("search %s on a partial node: %v, want 501 not_implemented", algo, err)
		}
	}
	_, err = cl.Prepare(ctx, &api.PrepareRequest{Query: "software revenue", Algorithm: "auto"})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 501 || ae.Code != api.CodeNotImplemented {
		t.Errorf("prepare on a partial node: %v, want 501 not_implemented", err)
	}
	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz after refused queries: %+v, %v", h, err)
	}
	if _, err := cl.ProbeShard(ctx, &api.ClusterProbeRequest{Shard: 0, Query: "software", K: 5}); err != nil {
		t.Fatalf("resident shard leg after refused queries: %v", err)
	}
}

// TestRouteTable pins the route table against the endpoint list of the
// wire-schema golden: every endpoint is served under /v1 (a wrong-method
// request proves the route exists without needing a valid body), and its
// unversioned spelling — the aliases PR 10 kept for one release — answers
// the 404 not_found envelope.
func TestRouteTable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "api", "v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(golden), "\nendpoints")
	section, _, _ = strings.Cut(section, "\n\n")
	var endpoints [][2]string // method, path
	for _, line := range strings.Split(section, "\n")[1:] {
		f := strings.Fields(line)
		path, _, _ := strings.Cut(f[1], "?")
		endpoints = append(endpoints, [2]string{f[0], path})
	}
	if len(endpoints) != 9 {
		t.Fatalf("parsed %d endpoints from the golden, want 9: %v", len(endpoints), endpoints)
	}

	eng, err := kbtable.NewEngine(demoGraph(t), kbtable.EngineOptions{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewNode(serve.Config{Engine: eng, D: 3}, "node", "n0").Handler())
	t.Cleanup(ts.Close)

	status := func(method, path string) (int, string) {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env api.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Error.Code
	}
	for _, ep := range endpoints {
		method, path := ep[0], ep[1]
		wrong := http.MethodPost
		if method == http.MethodPost {
			wrong = http.MethodGet
		}
		if code, errCode := status(wrong, path); code != http.StatusMethodNotAllowed || errCode != api.CodeMethodNotAllowed {
			t.Errorf("%s %s: %d %q, want 405 method_not_allowed (route missing?)", wrong, path, code, errCode)
		}
		unversioned := strings.TrimPrefix(path, "/"+api.Version)
		if code, errCode := status(method, unversioned); code != http.StatusNotFound || errCode != api.CodeNotFound {
			t.Errorf("%s %s: %d %q, want 404 not_found", method, unversioned, code, errCode)
		}
	}
}
