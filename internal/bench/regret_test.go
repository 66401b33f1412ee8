package bench

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"kbtable/internal/dataset"
	"kbtable/internal/index"
	"kbtable/internal/search"
)

var updateRegret = flag.Bool("update-regret", false, "re-time every query of testdata/planner/regret.txt at kbbench's default scale")

// regretPath is the Auto planner's regret fixture: one row per query of
// kbbench's Figure 7 (SynthWiki, d = 2, 3, 4) and SynthIMDB (d = 3,
// Figures 8 and 9(b)) query sets at the default scale, holding the
// planner's statistics and both algorithms' measured times.
var regretPath = filepath.Join("..", "..", "testdata", "planner", "regret.txt")

// regretCeiling is the largest per-set regret the fixture admits.
const regretCeiling = 1.10

// regretRow is one query of the fixture.
type regretRow struct {
	set    string
	st     search.PlanStats
	pe, le time.Duration
}

// regretSet is one query set of the fixture: its index (built on demand,
// so only one of the large ones is live at a time) and its queries.
type regretSet struct {
	name  string
	build func() *index.Index
	qs    []dataset.Query
}

// regretSets are the fixture's query sets, in file order.
func regretSets(e *Env) []regretSet {
	var out []regretSet
	for _, d := range e.Cfg.Ds {
		out = append(out, regretSet{fmt.Sprintf("fig7-d%d", d), func() *index.Index {
			ix, err := index.Build(e.Wiki(), index.Options{D: d})
			if err != nil {
				panic(err)
			}
			return ix
		}, e.WikiQueries()})
	}
	return append(out, regretSet{"imdb-d3", e.IMDBIndex, e.IMDBQueries()})
}

// timeRegretRows times PE and LE, best of three each, on every query the
// bucket tables time (answerable, within the SkipOver budget).
func timeRegretRows(t *testing.T) []regretRow {
	e := NewEnv(Config{})
	var rows []regretRow
	for _, s := range regretSets(e) {
		ix, n := s.build(), len(rows)
		for _, c := range costs(e, ix, s.qs) {
			if c.exceeded || c.patterns == 0 {
				continue
			}
			words, _ := search.ResolveQuery(ix.Dict(), c.q.Text)
			st, err := search.PlanProbe(context.Background(), ix, words, search.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r := regretRow{set: s.name, st: st, pe: math.MaxInt64, le: math.MaxInt64}
			for range 3 {
				r.pe = min(r.pe, e.timedRun(ix, nil, "PETopK", c.q.Text))
				r.le = min(r.le, e.timedRun(ix, nil, "LETopK", c.q.Text))
			}
			rows = append(rows, r)
		}
		t.Logf("%s: %d queries timed", s.name, len(rows)-n)
	}
	return rows
}

func writeRegretRows(t *testing.T, rows []regretRow) {
	var b strings.Builder
	fmt.Fprintf(&b, "# Auto planner regret fixture: kbbench's Fig. 7 (SynthWiki, d = 2, 3, 4) and SynthIMDB (d = 3) query sets at default scale.\n")
	fmt.Fprintf(&b, "# Each time is the best of 3 runs (%s/%s, %d CPUs, %s). Rewritten by `make regret-fixture`; TestAutoRegretFixture reads it.\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	b.WriteString("# set pattern_space candidate_roots frontier pe_ns le_ns\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %d %d %d %d %d\n", r.set, r.st.PatternSpace, r.st.CandidateRoots, r.st.Frontier, r.pe.Nanoseconds(), r.le.Nanoseconds())
	}
	if err := os.MkdirAll(filepath.Dir(regretPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(regretPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readRegretRows(t *testing.T) []regretRow {
	f, err := os.Open(regretPath)
	if err != nil {
		t.Fatalf("%v (regenerate with `make regret-fixture`)", err)
	}
	defer f.Close()
	var rows []regretRow
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		fs := strings.Fields(sc.Text())
		var n [5]int64
		ok := len(fs) == 1+len(n)
		for i := 0; ok && i < len(n); i++ {
			n[i], err = strconv.ParseInt(fs[1+i], 10, 64)
			ok = err == nil
		}
		if !ok {
			t.Fatalf("%s:%d: malformed row %q", regretPath, line, sc.Text())
		}
		rows = append(rows, regretRow{
			set: fs[0],
			st:  search.PlanStats{PatternSpace: n[0], CandidateRoots: int(n[1]), Frontier: n[2]},
			pe:  time.Duration(n[3]), le: time.Duration(n[4]),
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestAutoRegretFixture recomputes, from the recorded statistics and
// times, the regret Σ t(Auto's pick) / Σ min(t_PE, t_LE) of today's
// ChoosePlan on each query set, and fails if any set is above
// regretCeiling or Auto's total exceeds the worse single algorithm's. It
// takes no timing of its own; -update-regret re-times the queries first.
func TestAutoRegretFixture(t *testing.T) {
	if *updateRegret {
		writeRegretRows(t, timeRegretRows(t))
	}
	rows := readRegretRows(t)
	type setTotals struct {
		r      regret
		pe, le time.Duration
		n      int
	}
	var order []string
	bySet := map[string]*setTotals{}
	for _, row := range rows {
		s := bySet[row.set]
		if s == nil {
			s = &setTotals{}
			bySet[row.set] = s
			order = append(order, row.set)
		}
		s.r.add(search.ChoosePlan(search.AlgoAuto, row.st).Algo, row.le, row.pe)
		s.pe += row.pe
		s.le += row.le
		s.n++
	}
	if want := []string{"fig7-d2", "fig7-d3", "fig7-d4", "imdb-d3"}; !slices.Equal(order, want) {
		t.Fatalf("fixture sets %v, want %v (regenerate with `make regret-fixture`)", order, want)
	}
	for _, name := range order {
		s := bySet[name]
		ratio := float64(s.r.picked) / float64(s.r.best)
		t.Logf("%s: %d queries, Auto regret %s (PE alone %.3f, LE alone %.3f)", name, s.n, s.r,
			float64(s.pe)/float64(s.r.best), float64(s.le)/float64(s.r.best))
		if ratio > regretCeiling {
			t.Errorf("%s: Auto regret %s is above %.2f", name, s.r, regretCeiling)
		}
		if s.r.picked > max(s.pe, s.le) {
			t.Errorf("%s: Auto's total %v exceeds the worse single algorithm's (PE %v, LE %v)", name, s.r.picked, s.pe, s.le)
		}
	}
}
