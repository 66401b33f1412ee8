package kbtable

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kbtable/internal/dataset"
	"kbtable/internal/kg"
)

// The golden-corpus regression suite pins end-to-end behavior — keyword
// resolution, enumeration, scoring, ranking, tie-breaks, table
// composition, rendering — against checked-in answer files over small
// fixed corpora. Every execution mode the engine offers (PATTERNENUM,
// LINEARENUM-TOPK, baseline × serial, parallel, sharded) must reproduce
// the same bytes: the engine's equivalence claims are not "close", they
// are exact, so the goldens hold for all of them.
//
// Regenerate (after an intentional behavior change) with:
//
//	go test -run TestGoldenCorpus -update
//
// which rewrites both the corpus dumps (testdata/corpus) and the answer
// files (testdata/golden) deterministically.

var updateGolden = flag.Bool("update", false, "rewrite golden corpus and answer files")

// goldenK and goldenRows fix the answer shape the goldens pin.
const (
	goldenK    = 10
	goldenRows = 6
)

// corpusSpec is one checked-in corpus with its frozen query workload.
type corpusSpec struct {
	name    string
	queries []string
	gen     func() *kg.Graph // -update regenerates the dump from this
}

func goldenCorpora() []corpusSpec {
	return []corpusSpec{
		{
			name: "wiki",
			gen: func() *kg.Graph {
				return dataset.SynthWiki(dataset.WikiConfig{Entities: 160, Types: 12, AttrVocab: 30, Vocab: 60, Seed: 42})
			},
			queries: []string{
				"washington",
				"washington city",
				"population river",
				"software company revenue",
				"database university",
				"album band",
				"movie actor director",
				"capital state",
				"book author publisher",
				"school season",
			},
		},
		{
			name: "imdb",
			gen: func() *kg.Graph {
				return dataset.SynthIMDB(dataset.IMDBConfig{Movies: 60, Seed: 42})
			},
			queries: []string{
				"taylor",
				"night star",
				"king taylor",
				"star man",
				"man secret",
				"story movie",
				"king movie",
				"star wilson",
				"night moore",
				"man director",
			},
		},
	}
}

// dumpCorpus writes g in the line-oriented corpus format:
//
//	E <id> <Type> <entity text>
//	A <src> <Attr> <dst>
//	T <src> <Attr> <literal text>
//
// E ids are the generator's node ids; loadCorpus remaps them, so only the
// file is authoritative, never the generator's numbering.
func dumpCorpus(g *kg.Graph) string {
	var sb strings.Builder
	sb.WriteString("# kbtable golden corpus — regenerate with `go test -run TestGoldenCorpus -update`\n")
	for v := 0; v < g.NumNodes(); v++ {
		id := kg.NodeID(v)
		if g.Type(id) == kg.LiteralType {
			continue // literals are emitted as T lines from their parent edge
		}
		fmt.Fprintf(&sb, "E %d %s %s\n", v, g.TypeName(g.Type(id)), g.Text(id))
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(kg.EdgeID(e))
		if g.Type(ed.Dst) == kg.LiteralType {
			fmt.Fprintf(&sb, "T %d %s %s\n", ed.Src, g.AttrName(ed.Attr), g.Text(ed.Dst))
		} else {
			fmt.Fprintf(&sb, "A %d %s %d\n", ed.Src, g.AttrName(ed.Attr), ed.Dst)
		}
	}
	return sb.String()
}

// loadCorpus rebuilds a Graph from a corpus dump through the public
// Builder API.
func loadCorpus(t *testing.T, path string) *Graph {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read corpus: %v (regenerate with -update)", err)
	}
	b := NewBuilder()
	ids := map[int64]EntityID{}
	for ln, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, " ", 4)
		bad := func() { t.Fatalf("corpus line %d malformed: %q", ln+1, line) }
		if len(parts) < 3 {
			bad()
		}
		switch parts[0] {
		case "E":
			if len(parts) != 4 {
				bad()
			}
			id, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				bad()
			}
			ids[id] = b.Entity(parts[2], parts[3])
		case "A":
			if len(parts) != 4 {
				bad()
			}
			src, err1 := strconv.ParseInt(parts[1], 10, 64)
			dst, err2 := strconv.ParseInt(parts[3], 10, 64)
			if err1 != nil || err2 != nil {
				bad()
			}
			b.Attr(ids[src], parts[2], ids[dst])
		case "T":
			if len(parts) != 4 {
				bad()
			}
			src, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				bad()
			}
			b.TextAttr(ids[src], parts[2], parts[3])
		default:
			bad()
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// renderGolden snapshots answers at full fidelity: exact score bits, the
// resolved pattern, and the composed table.
func renderGolden(query string, answers []Answer) string {
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

// goldenVariants are the execution modes that must reproduce the golden
// bytes exactly. Workers=1 vs 4 pins serial/parallel; Shards pins the
// scatter-gather engine; all three algorithms are exercised for each.
type goldenVariant struct {
	label   string
	workers int
	shards  int
	algo    Algorithm
}

func goldenVariants() []goldenVariant {
	return []goldenVariant{
		{"pe-serial", 1, 0, PatternEnum}, // the reference that writes the goldens
		{"pe-parallel", 4, 0, PatternEnum},
		{"le-serial", 1, 0, LinearEnum},
		{"le-parallel", 4, 0, LinearEnum},
		{"baseline-serial", 1, 0, Baseline},
		{"baseline-parallel", 4, 0, Baseline},
		{"pe-sharded2", 0, 2, PatternEnum},
		{"pe-sharded5", 0, 5, PatternEnum},
		{"le-sharded3", 0, 3, LinearEnum},
		{"baseline-sharded4", 0, 4, Baseline},
		// The planner may pick either algorithm per query; whatever it
		// picks must reproduce the same golden bytes.
		{"auto-serial", 1, 0, Auto},
		{"auto-parallel", 4, 0, Auto},
		{"auto-sharded3", 0, 3, Auto},
	}
}

func TestGoldenCorpus(t *testing.T) {
	for _, spec := range goldenCorpora() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			corpusPath := filepath.Join("testdata", "corpus", spec.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(corpusPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(corpusPath, []byte(dumpCorpus(spec.gen())), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			g := loadCorpus(t, corpusPath)

			// One engine per (workers, shards) configuration, shared
			// across queries and algorithms.
			engines := map[string]*Engine{}
			engineFor := func(v goldenVariant) *Engine {
				key := fmt.Sprintf("w%d-s%d", v.workers, v.shards)
				if e, ok := engines[key]; ok {
					return e
				}
				e, err := NewEngine(g, EngineOptions{D: 3, Workers: v.workers, Shards: v.shards})
				if err != nil {
					t.Fatal(err)
				}
				engines[key] = e
				return e
			}

			for qi, q := range spec.queries {
				goldenPath := filepath.Join("testdata", "golden",
					fmt.Sprintf("%s_%02d_%s.golden", spec.name, qi+1, strings.ReplaceAll(q, " ", "-")))
				var want string
				for _, v := range goldenVariants() {
					answers, err := engineFor(v).SearchOpts(q, SearchOptions{
						K: goldenK, Algorithm: v.algo, MaxRowsPerTable: goldenRows,
					})
					if err != nil {
						t.Fatal(err)
					}
					got := renderGolden(q, answers)
					if v.label == "pe-serial" {
						if *updateGolden {
							if len(answers) == 0 {
								t.Fatalf("query %q has no answers; pick a different golden query", q)
							}
							if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
								t.Fatal(err)
							}
							if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
								t.Fatal(err)
							}
						}
						data, err := os.ReadFile(goldenPath)
						if err != nil {
							t.Fatalf("read golden: %v (regenerate with -update)", err)
						}
						want = string(data)
					}
					if got != want {
						t.Errorf("%s diverges from golden %s:\n%s", v.label, goldenPath, diffHint(want, got))
					}
				}
			}
		})
	}
}

// diffHint points at the first differing line to keep failures readable.
func diffHint(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: golden %d lines, got %d lines", len(wl), len(gl))
}
