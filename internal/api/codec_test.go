package api

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kbtable"
)

// encodingJSON is the reference the codec must reproduce byte for byte:
// what json.Encoder.Encode writes for resp, trailing newline included.
func encodingJSON(t testing.TB, resp *SearchResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encode is the codec's encoding of resp: the answers encoded on their
// own, then written between the head and the tail, as the server does.
func encode(t testing.TB, resp *SearchResponse) []byte {
	t.Helper()
	answers, err := AppendAnswers(nil, resp.Answers)
	if err != nil {
		t.Fatal(err)
	}
	head, err := SearchHead(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(head, answers...), SearchTail...)
}

// checkCodec asserts that resp encodes exactly as encoding/json encodes
// it and that the body decodes on the fast path to what json.Unmarshal
// makes of it.
func checkCodec(t *testing.T, name string, resp *SearchResponse) {
	t.Helper()
	want := encodingJSON(t, resp)
	got := encode(t, resp)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding differs from encoding/json:\n got: %s\nwant: %s", name, got, want)
		return
	}
	var ref SearchResponse
	if err := json.Unmarshal(got, &ref); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d := decoder{s: string(got)}
	var fast SearchResponse
	if !d.response(&fast) {
		t.Errorf("%s: the server's own encoding left the fast decode path", name)
	} else if !reflect.DeepEqual(&fast, &ref) {
		t.Errorf("%s: fast decode differs from json.Unmarshal:\n got: %+v\nwant: %+v", name, fast, ref)
	}
}

// adversarialResponses covers what the golden corpora never produce:
// strings encoding/json escapes, extreme and negative scores, nil vs
// empty slices, and each optional field present and absent.
func adversarialResponses() map[string]*SearchResponse {
	strs := []string{
		"", "plain", `<script>&amp;</script>`, `say "hi"`, `back\slash`, "tab\tnl\ncr\rbs\bff\f",
		"\x00\x01\x1f\x7f", "line\u2028para\u2029", "bad\xffutf8\xc3", "\u00e9\u4e2d\U0001f600", "\xed\xa0\x80",
	}
	plan := &PlanOut{Algorithm: "patternenum", Auto: true, Reason: "cost <k> & \"more\"", CandidateRoots: -1,
		RootTypes: 3, PatternSpace: 1 << 40, Frontier: -7, PrepareMS: 0.001, EnumerateMS: 12.5, AggregateMS: 1e-7, RankMS: 0, BoundPruned: 9}
	out := map[string]*SearchResponse{
		"nil answers":   {Query: "q", K: 10, Algorithm: "linearenum", D: 3},
		"empty answers": {Query: "q", Answers: []SearchAnswer{}, Plan: &PlanOut{}},
		"flags": {Query: "q", Epoch: math.MaxUint64, Cached: true, ElapsedMS: 1e21,
			K: math.MinInt64, D: math.MaxInt64, Plan: plan, Answers: []SearchAnswer{{}}},
		"slices": {Answers: []SearchAnswer{
			{Columns: nil, FullColumns: nil, Rows: nil},
			{Columns: []string{}, FullColumns: []string{}, Rows: [][]string{}},
			{Columns: []string{"a"}, FullColumns: []string{"T.a"}, Rows: [][]string{nil, {}, {"x"}}},
		}},
	}
	var scored []SearchAnswer
	for i, f := range []float64{0, math.Copysign(0, -1), 1, -1, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21,
		123456789.125, math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 1.0 / 3} {
		scored = append(scored, SearchAnswer{Rank: i + 1, Score: f, NumRows: -i})
	}
	out["scores"] = &SearchResponse{ElapsedMS: -0.5, Answers: scored}
	for i, s := range strs {
		out["string "+strconv.Itoa(i)] = &SearchResponse{Query: s, Algorithm: s,
			Plan: &PlanOut{Algorithm: s, Reason: s},
			Answers: []SearchAnswer{{Pattern: s, Columns: []string{s, s}, FullColumns: []string{s},
				Rows: [][]string{{s}, strs}}}}
	}
	return out
}

func TestCodecMatchesEncodingJSONAdversarial(t *testing.T) {
	for name, resp := range adversarialResponses() {
		checkCodec(t, name, resp)
	}
}

func TestCodecRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendAnswers(nil, []SearchAnswer{{Score: f}}); err == nil {
			t.Errorf("score %v encoded without error", f)
		}
		if _, err := SearchHead(&SearchResponse{Plan: &PlanOut{RankMS: f}}); err == nil {
			t.Errorf("rank_ms %v encoded without error", f)
		}
	}
}

// The golden corpora (testdata/corpus) with their frozen query
// workloads, as in the module's golden suite.
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

// loadCorpus rebuilds a golden corpus dump ("E id Type text",
// "A src Attr dst", "T src Attr text" lines).
func loadCorpus(t testing.TB, path string) *kbtable.Graph {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := kbtable.NewBuilder()
	ids := map[string]kbtable.EntityID{}
	for _, line := range strings.Split(string(data), "\n") {
		parts := strings.SplitN(line, " ", 4)
		if len(parts) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		switch parts[0] {
		case "E":
			ids[parts[1]] = b.Entity(parts[2], parts[3])
		case "A":
			b.Attr(ids[parts[1]], parts[2], ids[parts[3]])
		case "T":
			b.TextAttr(ids[parts[1]], parts[2], parts[3])
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var golden struct {
	once  sync.Once
	resps map[string]*SearchResponse
}

// goldenResponses answers every golden query under PE, LE and Auto on
// the golden corpora, shaped as the server shapes a reply.
func goldenResponses(t testing.TB) map[string]*SearchResponse {
	golden.once.Do(func() {
		golden.resps = map[string]*SearchResponse{}
		for corpus, queries := range goldenQueries {
			g := loadCorpus(t, filepath.Join("..", "..", "testdata", "corpus", corpus+".txt"))
			eng, err := kbtable.NewEngine(g, kbtable.EngineOptions{D: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				for _, algo := range []kbtable.Algorithm{kbtable.PatternEnum, kbtable.LinearEnum, kbtable.Auto} {
					answers, pi, err := eng.SearchPlan(context.Background(), q,
						kbtable.SearchOptions{K: 10, Algorithm: algo, MaxRowsPerTable: 6})
					if err != nil {
						t.Fatal(err)
					}
					resp := &SearchResponse{Query: q, K: 10, Algorithm: AlgorithmName(pi.Algorithm), D: 3,
						ElapsedMS: float64(pi.Enumerate.Microseconds()) / 1000,
						Plan: &PlanOut{Algorithm: AlgorithmName(pi.Algorithm), Auto: pi.Auto, Reason: pi.Reason,
							CandidateRoots: pi.CandidateRoots, RootTypes: pi.RootTypes,
							PatternSpace: pi.PatternSpace, Frontier: pi.Frontier, BoundPruned: pi.BoundPruned},
						Answers: make([]SearchAnswer, len(answers)),
					}
					for i, a := range answers {
						resp.Answers[i] = SearchAnswer(a)
					}
					golden.resps[corpus+"/"+q+"/"+AlgorithmName(algo)] = resp
				}
			}
		}
	})
	if len(golden.resps) != 60 {
		t.Fatalf("%d golden responses, want 60", len(golden.resps))
	}
	return golden.resps
}

func TestCodecMatchesEncodingJSONGolden(t *testing.T) {
	for name, resp := range goldenResponses(t) {
		if len(resp.Answers) == 0 {
			t.Errorf("%s: no answers", name)
		}
		checkCodec(t, name, resp)
	}
}

// TestDecodeEdgeInputs pins inputs on and off the fast path (repeated
// keys, escapes, bad numbers, trailing data, whitespace) to
// encoding/json's exact value and error.
func TestDecodeEdgeInputs(t *testing.T) {
	for _, in := range []string{
		``, `null`, `[]`, `{"query":"a"} x`, `{"Query":"a"}`, `{"query":"a","query":"b"}`,
		`{"plan":{"auto":true},"plan":{"reason":"x"}}`, `{"plan":null,"plan":{"rank_ms":1}}`,
		`{"answers":[{"rank":1,"score":2}],"answers":[{"rank":3}]}`, `{"answers":null,"answers":[]}`,
		`{"answers":[{"rows":[["a"],["b"]],"rows":[["c"]],"columns":["x"],"columns":[]}]}`,
		`{"unknown":1,"k":2}`, `{"k":1.5}`, `{"k":"1"}`, `{"k":null}`, `{"epoch":-1}`,
		`{"elapsed_ms":1e400}`, `{"query":"a` + "\x01" + `"}`, `{"answers":[null]}`,
		`{"answers":[{"rows":[["a",null]]}]}`, `{"k":01}`, `{"plan":{"auto":tru}}`,
		`{"query":"\ud800"}`, `{"query":"\ud83d\ude00"}`, `{"query":"a\u00e9\/\"b\u2028"}`,
		`{"query":"\x"}`, `{"query":"\u12"}`, `{"query":"\u12g4"}`, `{"query":"a\`,
		` {"query" : "é\n" , "answers" : [ ] } `,
	} {
		got, gotErr := DecodeSearchResponse([]byte(in))
		var want SearchResponse
		wantErr := json.Unmarshal([]byte(in), &want)
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("%q: error %v, encoding/json says %v", in, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%q: error %q, encoding/json says %q", in, gotErr, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%q: decoded %+v, encoding/json says %+v", in, got, want)
		}
	}
}

func FuzzSearchResponseDecode(f *testing.F) {
	for _, resp := range goldenResponses(f) {
		f.Add(encode(f, resp))
	}
	for _, resp := range adversarialResponses() {
		f.Add(encode(f, resp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := DecodeSearchResponse(data)
		var want SearchResponse
		wantErr := json.Unmarshal(data, &want)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("error %v, encoding/json says %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, &want) {
			t.Fatalf("decoded %+v, encoding/json says %+v", got, want)
		}
	})
}

// decoded keeps the benchmark's decodes live.
var decoded *SearchResponse

// BenchmarkDecodeSearchResponse times the client's decode of search
// replies, MB/s over their body bytes: every golden reply in turn
// (golden), and one workload-shaped reply of 10 answers × 50 rows of
// three cells (10x50).
func BenchmarkDecodeSearchResponse(b *testing.B) {
	goldens := goldenResponses(b)
	names := make([]string, 0, len(goldens))
	for name := range goldens {
		names = append(names, name)
	}
	sort.Strings(names)
	var bodies [][]byte
	for _, name := range names {
		bodies = append(bodies, encode(b, goldens[name]))
	}
	wide := &SearchResponse{Query: "city population river", K: 10, Algorithm: "linearenum", D: 3, Plan: &PlanOut{Algorithm: "linearenum"}}
	for a := 0; a < 10; a++ {
		ans := SearchAnswer{Rank: a + 1, Score: 0.1 / float64(a+1), NumRows: 50, Pattern: "City\n  population\n  river -> River",
			Columns: []string{"City", "Population", "River"}, FullColumns: []string{"City", "City.population", "City.river"}}
		for r := 0; r < 50; r++ {
			s := strconv.Itoa(1000*a + r)
			ans.Rows = append(ans.Rows, []string{"City " + s, s + "00", "River " + s})
		}
		wide.Answers = append(wide.Answers, ans)
	}
	for _, bench := range []struct {
		name   string
		bodies [][]byte
	}{{"golden", bodies}, {"10x50", [][]byte{encode(b, wide)}}} {
		b.Run(bench.name, func(b *testing.B) {
			n := 0
			for _, body := range bench.bodies {
				n += len(body)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, body := range bench.bodies {
					resp, err := DecodeSearchResponse(body)
					if err != nil {
						b.Fatal(err)
					}
					decoded = resp
				}
			}
		})
	}
}
