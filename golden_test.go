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
// fixed corpora, as the facade renders them for the default algorithm on
// one serial shard. That every other execution mode reproduces the same
// answers, and far more than the rendered tables, is the equivalence
// matrix's job (equivalence_test.go).
//
// Regenerate (after an intentional behavior change) with:
//
//	go test -run TestGoldenCorpus -update
//
// which rewrites the corpus dumps (testdata/corpus), the answer files
// (testdata/golden) and the deep reference dump the matrix checks
// (testdata/deep) deterministically.

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

// graph loads the spec's checked-in corpus.
func (c corpusSpec) graph(t *testing.T) *Graph {
	return loadCorpus(t, filepath.Join("testdata", "corpus", c.name+".txt"))
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
		var src, dst int64
		var err1, err2 error
		if len(parts) == 4 {
			src, err1 = strconv.ParseInt(parts[1], 10, 64)
			dst, err2 = strconv.ParseInt(parts[3], 10, 64)
		}
		switch {
		case len(parts) != 4 || err1 != nil || parts[0] == "A" && err2 != nil:
			t.Fatalf("corpus line %d malformed: %q", ln+1, line)
		case parts[0] == "E":
			ids[src] = b.Entity(parts[2], parts[3])
		case parts[0] == "A":
			b.Attr(ids[src], parts[2], ids[dst])
		case parts[0] == "T":
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

func TestGoldenCorpus(t *testing.T) {
	for _, spec := range goldenCorpora() {
		t.Run(spec.name, func(t *testing.T) {
			if *updateGolden {
				writeFile(t, filepath.Join("testdata", "corpus", spec.name+".txt"), dumpCorpus(spec.gen()))
			}
			g := spec.graph(t)
			if *updateGolden {
				writeDeep(t, spec, g)
			}
			e, err := NewEngine(g, EngineOptions{D: 3, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range spec.queries {
				goldenPath := filepath.Join("testdata", "golden",
					fmt.Sprintf("%s_%02d_%s.golden", spec.name, qi+1, strings.ReplaceAll(q, " ", "-")))
				answers, err := e.SearchOpts(q, SearchOptions{K: goldenK, MaxRowsPerTable: goldenRows})
				if err != nil {
					t.Fatal(err)
				}
				got := renderGolden(q, answers)
				if *updateGolden {
					if len(answers) == 0 {
						t.Fatalf("query %q has no answers; pick a different golden query", q)
					}
					writeFile(t, goldenPath, got)
				}
				data, err := os.ReadFile(goldenPath)
				if err != nil {
					t.Fatalf("read golden: %v (regenerate with -update)", err)
				}
				if want := string(data); got != want {
					t.Errorf("diverges from golden %s:\n%s", goldenPath, diffHint(want, got))
				}
			}
		})
	}
}

// writeFile writes a regenerated fixture, creating its directory.
func writeFile(t *testing.T, path, data string) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
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
