package kbtable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The cold-start matrix (the CI job of the same name): build a snapshot
// from a golden corpus, stream updates at a durable kbserve, SIGKILL it
// mid-stream, restart from -data-dir, finish the stream, and byte-diff
// the golden answer files against an always-in-memory kbserve that ran
// the identical stream uninterrupted. The diff covers all 20 golden
// queries (10 per corpus), sharded and unsharded.
//
// The harness execs real kbserve processes (SIGKILL must hit a real
// process, not an httptest server), so it is opt-in:
//
//	KBTABLE_COLDSTART=1 go test -run TestColdStartRecovery -v .

func TestColdStartRecovery(t *testing.T) {
	if os.Getenv("KBTABLE_COLDSTART") == "" {
		t.Skip("set KBTABLE_COLDSTART=1 to run the cold-start matrix (execs kbserve, SIGKILLs it)")
	}
	bin := buildKBServe(t)
	for _, spec := range goldenCorpora() {
		for _, shards := range []int{1, 3} {
			spec, shards := spec, shards
			t.Run(fmt.Sprintf("%s-shards%d", spec.name, shards), func(t *testing.T) {
				runColdStart(t, bin, spec, shards)
			})
		}
	}
}

func runColdStart(t *testing.T, bin string, spec corpusSpec, shards int) {
	work := t.TempDir()
	g := loadCorpus(t, filepath.Join("testdata", "corpus", spec.name+".txt"))
	kbPath := filepath.Join(work, spec.name+".kb")
	if err := g.Save(kbPath); err != nil {
		t.Fatal(err)
	}

	// One deterministic update stream, pre-filtered to batches the
	// engine accepts, so both servers execute the identical history.
	batches := acceptedBatches(t, g, shards, 12)
	mid := len(batches) / 2

	// Reference: always-in-memory server, never restarted.
	ref := startKBServe(t, bin, "-kb", kbPath, "-shards", fmt.Sprint(shards))
	defer ref.kill()
	for _, b := range batches {
		ref.update(t, b)
	}
	want := ref.goldenAnswers(t, spec.queries)
	wantDir := filepath.Join(work, "want")
	writeAnswerFiles(t, wantDir, spec, want)

	// Durable run: seed the data dir, stream half the updates, SIGKILL
	// mid-stream, restart from the directory, stream the rest.
	dataDir := filepath.Join(work, "data")
	crash := startKBServe(t, bin, "-kb", kbPath, "-shards", fmt.Sprint(shards),
		"-data-dir", dataDir, "-checkpoint-every", "4")
	for _, b := range batches[:mid] {
		crash.update(t, b)
	}
	crash.kill() // SIGKILL: no drain, no final checkpoint

	// The restart recovers from whichever snapshot the checkpointer left
	// last, through index.Load, which reads only the current wire format.
	restarted := startKBServe(t, bin, "-data-dir", dataDir, "-checkpoint-every", "4")
	defer restarted.kill()
	hz := restarted.healthz(t)
	if hz.Durability == nil {
		t.Fatal("restarted server reports no durability block")
	}
	if hz.Durability.WALSeq != uint64(mid) {
		t.Fatalf("restarted at wal_seq %d, want %d (stream position lost)", hz.Durability.WALSeq, mid)
	}
	for _, b := range batches[mid:] {
		restarted.update(t, b)
	}
	got := restarted.goldenAnswers(t, spec.queries)
	gotDir := filepath.Join(work, "got")
	writeAnswerFiles(t, gotDir, spec, got)

	for qi := range spec.queries {
		name := answerFileName(spec, qi)
		w, err := os.ReadFile(filepath.Join(wantDir, name))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: crash-recovered answers diverge from the in-memory run:\n%s",
				name, diffHint(string(w), string(g)))
		}
	}
}

// TestColdStartGroupCommitCrash is the group-commit member of the
// cold-start matrix: hammer a durable kbserve with CONCURRENT updates so
// the WAL committer is forced to batch multiple records per fsync
// (-group-commit-delay holds batches open), SIGKILL it with writes still
// in flight — maximizing the odds the kill lands mid-batch — and verify
// the restart honors every acknowledged update: wal_seq >= acks, no torn
// record survives, and the server keeps serving and accepting updates.
func TestColdStartGroupCommitCrash(t *testing.T) {
	if os.Getenv("KBTABLE_COLDSTART") == "" {
		t.Skip("set KBTABLE_COLDSTART=1 to run the cold-start matrix (execs kbserve, SIGKILLs it)")
	}
	bin := buildKBServe(t)
	spec := goldenCorpora()[0]
	work := t.TempDir()
	g := loadCorpus(t, filepath.Join("testdata", "corpus", spec.name+".txt"))
	kbPath := filepath.Join(work, spec.name+".kb")
	if err := g.Save(kbPath); err != nil {
		t.Fatal(err)
	}

	dataDir := filepath.Join(work, "data")
	crash := startKBServe(t, bin, "-kb", kbPath, "-data-dir", dataDir,
		"-checkpoint-every", "8", "-group-commit-delay", "2ms")

	// Concurrent updaters, each batch self-contained (new entity + text
	// attribute on it via back-reference), so any admission order is a
	// valid history and acks from different workers commute.
	const writers = 8
	var acked atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var u Update
				e := u.AddEntity("CrashEntity", fmt.Sprintf("crash w%d i%d", w, i))
				u.AddTextAttr(e, "Note", fmt.Sprintf("payload %d-%d", w, i))
				body, _ := json.Marshal(map[string]any{"ops": u.Ops})
				resp, err := http.Post(crash.base+"/v1/update", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server killed mid-request
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					acked.Add(1)
				}
			}
		}(w)
	}

	// Let batches form, then SIGKILL with writers still running.
	time.Sleep(1500 * time.Millisecond)
	crash.kill()
	close(stop)
	wg.Wait()
	acks := acked.Load()
	if acks == 0 {
		t.Fatal("no update was acknowledged before the kill; crash window missed")
	}

	restarted := startKBServe(t, bin, "-data-dir", dataDir, "-checkpoint-every", "8")
	defer restarted.kill()
	hz := restarted.healthz(t)
	if hz.Durability == nil {
		t.Fatal("restarted server reports no durability block")
	}
	// Every acknowledged update was group-committed before its 200, so
	// recovery must land at or past the ack count (unacked tail records
	// that happened to reach disk may push it higher; a torn tail is
	// discarded silently and never counted).
	if hz.Durability.WALSeq < acks {
		t.Fatalf("restarted at wal_seq %d < %d acknowledged updates: durable acks lost", hz.Durability.WALSeq, acks)
	}

	// The recovered server still answers queries and accepts updates.
	restarted.goldenAnswers(t, spec.queries[:1])
	var u Update
	e := u.AddEntity("CrashEntity", "post recovery probe")
	u.AddTextAttr(e, "Note", "alive")
	restarted.update(t, u.Ops)
	if hz2 := restarted.healthz(t); hz2.Durability.WALSeq != hz.Durability.WALSeq+1 {
		t.Fatalf("post-recovery update did not advance wal_seq: %d -> %d",
			hz.Durability.WALSeq, hz2.Durability.WALSeq)
	}
}

// acceptedBatches derives a deterministic accepted-update stream by
// simulating the chain in process.
func acceptedBatches(t *testing.T, g *Graph, shards int, n int) [][]UpdateOp {
	t.Helper()
	eng, err := NewEngine(g, EngineOptions{D: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(1000*shards + n)))
	var out [][]UpdateOp
	for len(out) < n {
		u := randomBatch(rng, eng.g.g)
		ne, _, err := eng.ApplyUpdate(u)
		if err != nil {
			continue
		}
		eng = ne
		out = append(out, u.Ops)
	}
	return out
}

func answerFileName(spec corpusSpec, qi int) string {
	return fmt.Sprintf("%s_%02d_%s.golden", spec.name, qi+1, strings.ReplaceAll(spec.queries[qi], " ", "-"))
}

// writeAnswerFiles materializes one golden-style answer file per query
// (mirroring testdata/golden's naming) so failures leave a diffable
// artifact in the test's temp dir.
func writeAnswerFiles(t *testing.T, dir string, spec corpusSpec, rendered []string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for qi := range spec.queries {
		if err := os.WriteFile(filepath.Join(dir, answerFileName(spec, qi)), []byte(rendered[qi]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// --- kbserve process harness -----------------------------------------

func buildKBServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "kbserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kbserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build kbserve: %v\n%s", err, out)
	}
	return bin
}

type kbProc struct {
	cmd  *exec.Cmd
	base string
	logf string
	done chan struct{} // closed when the process exits (Wait returns)
}

// startKBServe launches kbserve on a fresh port and waits for /v1/healthz.
func startKBServe(t *testing.T, bin string, args ...string) *kbProc {
	t.Helper()
	return startKBServeAt(t, bin, freeAddr(t), args...)
}

// startKBServeAt launches kbserve on a caller-chosen address — cluster
// tests pick every member's port up front so the coordinator's
// membership file and the followers' -source flag can reference peers
// that have not started yet.
func startKBServeAt(t *testing.T, bin, addr string, args ...string) *kbProc {
	t.Helper()
	logf := filepath.Join(t.TempDir(), "kbserve.log")
	lf, err := os.Create(logf)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &kbProc{cmd: cmd, base: "http://" + addr, logf: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(p.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		select {
		case <-p.done:
			// Fail in milliseconds when kbserve dies at startup instead
			// of burning the whole health-poll deadline.
			out, _ := os.ReadFile(logf)
			t.Fatalf("kbserve (%v) exited during startup: %s", args, out)
		default:
		}
		if time.Now().After(deadline) {
			out, _ := os.ReadFile(logf)
			t.Fatalf("kbserve (%v) did not come up: %s", args, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (p *kbProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill() // SIGKILL
		<-p.done                 // reaped by the Wait goroutine
	}
}

func (p *kbProc) update(t *testing.T, ops []UpdateOp) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("update: %d %s", resp.StatusCode, buf.String())
	}
}

// goldenAnswers renders each query's wire answers in the golden-file
// style (rank, full-precision score, rows) for byte comparison.
func (p *kbProc) goldenAnswers(t *testing.T, queries []string) []string {
	t.Helper()
	out := make([]string, len(queries))
	for i, q := range queries {
		body, _ := json.Marshal(map[string]any{"query": q, "k": goldenK, "max_rows": goldenRows})
		resp, err := http.Post(p.base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		var sr struct {
			Answers []struct {
				Rank    int        `json:"rank"`
				Score   float64    `json:"score"`
				NumRows int        `json:"num_rows"`
				Pattern string     `json:"pattern"`
				Columns []string   `json:"columns"`
				Rows    [][]string `json:"rows"`
			} `json:"answers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		resp.Body.Close()
		var sb strings.Builder
		fmt.Fprintf(&sb, "query: %s\nanswers: %d\n", q, len(sr.Answers))
		for _, a := range sr.Answers {
			fmt.Fprintf(&sb, "\n#%d score=%.17g rows=%d\n%s\n", a.Rank, a.Score, a.NumRows, a.Pattern)
			sb.WriteString(strings.Join(a.Columns, " | "))
			sb.WriteByte('\n')
			for _, row := range a.Rows {
				sb.WriteString(strings.Join(row, " | "))
				sb.WriteByte('\n')
			}
		}
		out[i] = sb.String()
	}
	return out
}

type healthResp struct {
	Durability *struct {
		WALSeq      uint64 `json:"wal_seq"`
		SnapshotSeq uint64 `json:"snapshot_seq"`
	} `json:"durability"`
}

func (p *kbProc) healthz(t *testing.T) healthResp {
	t.Helper()
	resp, err := http.Get(p.base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/v1/healthz: %d %s", resp.StatusCode, body)
	}
	var hr healthResp
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return hr
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}
