package kbtable

// Multi-process cluster soak: a real coordinator, two shard owners, and
// a WAL-shipped replica as separate kbserve processes, a soak (the
// driver in soak_test.go) through the coordinator, the full golden
// workload byte-diffed against the single-node answer files, then a
// SIGKILL of one owner (answers must not change) and of the coordinator
// (the replica must keep serving). The harness execs and SIGKILLs real
// processes, so it is opt-in like the cold-start matrix:
//
//	KBTABLE_CLUSTER=1 go test -run TestClusterSoak -v .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestClusterSoak(t *testing.T) {
	if os.Getenv("KBTABLE_CLUSTER") == "" {
		t.Skip("set KBTABLE_CLUSTER=1 to run the cluster soak (execs 4 kbserve processes, SIGKILLs members)")
	}
	serveBin := buildKBServe(t)
	for _, spec := range goldenCorpora() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			runClusterSoak(t, serveBin, spec)
		})
	}
}

func runClusterSoak(t *testing.T, serveBin string, spec corpusSpec) {
	work := t.TempDir()
	g := loadCorpus(t, filepath.Join("testdata", "corpus", spec.name+".txt"))
	kbPath := filepath.Join(work, spec.name+".kb")
	if err := g.Save(kbPath); err != nil {
		t.Fatal(err)
	}

	// The result caches are disabled so every post-kill rerun actually
	// re-executes the scatter instead of replaying the cache.
	coord, fs := startCluster(t, serveBin, kbPath, 3, []string{"-pull-interval", "50ms"},
		"n0 shards=0-1", "n1 shards=2", "r0 replica")
	n1, r0 := fs[1], fs[2]

	// Soak through the coordinator: search-only (the golden byte-diff
	// below needs the corpus unmodified).
	soak(t, coord.base, g, 8, 1, 3*time.Second, 0.01)

	// Full golden workload through the scattering coordinator: the
	// answers must be byte-identical to the checked-in single-node
	// files, for every algorithm.
	checkGoldens := func(stage string) {
		for qi, q := range spec.queries {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", answerFileName(spec, qi)))
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []string{"patternenum", "linearenum", "auto"} {
				got := searchV1Rendered(t, coord.base, q, algo)
				if got != string(want) {
					t.Errorf("%s: %s (%s) diverges from the single-node golden:\n%s",
						stage, answerFileName(spec, qi), algo, diffHint(string(want), got))
				}
			}
		}
	}
	checkGoldens("full cluster")
	if remote := clusterRemoteLegs(t, coord.base); remote == 0 {
		t.Fatal("coordinator executed no remote shard legs — the cluster was never exercised")
	}

	// SIGKILL the owner of shard 2: its legs fail over (replica, then
	// coordinator-local) and answers must not change by a byte.
	n1.kill()
	checkGoldens("owner n1 killed")

	// An update through the coordinator ships over the WAL; the replica
	// must reach the coordinator's sequence.
	var u Update
	e := u.AddEntity("Company", "Soak Test Co")
	u.AddTextAttr(e, "Revenue", "US$ 1 billion")
	coord.update(t, u.Ops)
	wantSeq := shardsV1(t, coord.base).Seq
	if wantSeq == 0 {
		t.Fatal("coordinator reports seq 0 after an update")
	}
	deadline := time.Now().Add(10 * time.Second)
	for shardsV1(t, r0.base).Seq != wantSeq {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d", shardsV1(t, r0.base).Seq, wantSeq)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Coordinator failover: kill it and read from the replica directly.
	coord.kill()
	resp := searchV1(t, r0.base, spec.queries[0], "patternenum")
	if resp.Epoch != wantSeq {
		t.Fatalf("replica serves epoch %d after coordinator death, want %d", resp.Epoch, wantSeq)
	}
	if sh := shardsV1(t, r0.base); sh.Role != "replica" || !sh.Complete {
		t.Fatalf("replica /v1/shards after failover: %+v", sh)
	}
}

// startCluster starts a coordinator over kbPath, split into shards index
// shards, and then one follower per member spec: "n0 shards=0-1" is an
// owner node, "r0 replica" a replica. Every process runs with -cache -1,
// the followers also with followerFlags. It returns the coordinator and
// the followers in spec order; t's cleanup kills them all.
func startCluster(t *testing.T, bin, kbPath string, shards int, followerFlags []string, specs ...string) (*kbProc, []*kbProc) {
	t.Helper()
	work := t.TempDir()
	addrs := make([]string, len(specs))
	var members strings.Builder
	for i, spec := range specs {
		addrs[i] = freeAddr(t)
		id, role, _ := strings.Cut(spec, " ")
		fmt.Fprintf(&members, "%s http://%s %s\n", id, addrs[i], role)
	}
	memberFile := filepath.Join(work, "members")
	if err := os.WriteFile(memberFile, []byte(members.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	common := []string{"-kb", kbPath, "-shards", fmt.Sprint(shards), "-cache", "-1"}
	coord := startKBServe(t, bin, append(slices.Clip(common), "-role", "coordinator", "-node-id", "c0",
		"-cluster", memberFile, "-data-dir", filepath.Join(work, "coord-data"))...)
	t.Cleanup(coord.kill)
	followers := make([]*kbProc, len(specs))
	for i, spec := range specs {
		id, role, _ := strings.Cut(spec, " ")
		args := append(slices.Concat(common, followerFlags), "-node-id", id, "-source", coord.base)
		if r, ok := strings.CutPrefix(role, "shards="); ok {
			args = append(args, "-role", "node", "-shard-range", r)
		} else {
			args = append(args, "-role", "replica")
		}
		followers[i] = startKBServeAt(t, bin, addrs[i], args...)
		t.Cleanup(followers[i].kill)
	}
	return coord, followers
}

type v1SearchResponse struct {
	Epoch   uint64 `json:"epoch"`
	Answers []struct {
		Rank        int        `json:"rank"`
		Score       float64    `json:"score"`
		NumRows     int        `json:"num_rows"`
		Pattern     string     `json:"pattern"`
		FullColumns []string   `json:"full_columns"`
		Rows        [][]string `json:"rows"`
	} `json:"answers"`
}

func searchV1(t *testing.T, base, query, algo string) v1SearchResponse {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"query": query, "k": goldenK, "max_rows": goldenRows, "algorithm": algo,
	})
	resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("search %q: %v", query, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("search %q: %d %s", query, resp.StatusCode, buf.String())
	}
	var sr v1SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("search %q: %v", query, err)
	}
	return sr
}

// searchV1Rendered renders a /v1/search response in the golden-file
// byte format (rank, %.17g score, formal columns, rows).
func searchV1Rendered(t *testing.T, base, query, algo string) string {
	t.Helper()
	sr := searchV1(t, base, query, algo)
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\nanswers: %d\n", query, len(sr.Answers))
	for _, a := range sr.Answers {
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

type v1ShardsResponse struct {
	Role     string `json:"role"`
	Complete bool   `json:"complete"`
	Seq      uint64 `json:"seq"`
}

func shardsV1(t *testing.T, base string) v1ShardsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sh v1ShardsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sh); err != nil {
		t.Fatal(err)
	}
	return sh
}

// clusterRemoteLegs sums the remote-leg counters from the coordinator's
// /v1/healthz cluster block.
func clusterRemoteLegs(t *testing.T, base string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr struct {
		Cluster *struct {
			Nodes []struct {
				Remote uint64 `json:"remote"`
			} `json:"nodes"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Cluster == nil {
		t.Fatal("coordinator /v1/healthz has no cluster block")
	}
	var remote uint64
	for _, n := range hr.Cluster.Nodes {
		remote += n.Remote
	}
	return remote
}
