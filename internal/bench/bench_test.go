package bench

import (
	"strconv"
	"strings"
	"testing"
)

// tinyEnv keeps unit tests fast; the real scales run via cmd/kbbench and
// the root bench_test.go benchmarks.
func tinyEnv() *Env {
	return NewEnv(Config{
		WikiEntities: 900,
		WikiTypes:    30,
		IMDBMovies:   300,
		PerM:         3,
		MaxM:         4,
		K:            10,
		Ds:           []int{2, 3},
	})
}

func TestRunFig6(t *testing.T) {
	tab := RunFig6(tinyEnv())
	if len(tab.Rows) != 2 {
		t.Fatalf("want one row per d, got %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "2" || tab.Rows[1][0] != "3" {
		t.Errorf("d column wrong: %v", tab.Rows)
	}
	// Entries must be monotone in d.
	if tab.Rows[0][3] >= tab.Rows[1][3] && len(tab.Rows[0][3]) >= len(tab.Rows[1][3]) {
		t.Errorf("entries should grow with d: %v vs %v", tab.Rows[0][3], tab.Rows[1][3])
	}
	out := tab.String()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "note:") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

// checkRegretColumn pins the shape of a bucket table's last column: Auto's
// regret, a ratio that is at least 1 by construction (the pick can never
// beat the faster algorithm's own time) or "-" for an empty bucket, plus
// the all-buckets note. Its size is timing, so it is not asserted.
func checkRegretColumn(t *testing.T, tab Table) {
	t.Helper()
	last := len(tab.Header) - 1
	if tab.Header[last] != "Auto regret" {
		t.Fatalf("%s: last column %q, want Auto regret", tab.Title, tab.Header[last])
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s: row %v does not match header %v", tab.Title, row, tab.Header)
		}
		if cell := row[last]; cell != "-" {
			if r, err := strconv.ParseFloat(cell, 64); err != nil || r < 1 {
				t.Errorf("%s: regret cell %q is not a ratio >= 1", tab.Title, cell)
			}
		}
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[len(tab.Notes)-1], "all buckets: ") {
		t.Errorf("%s: missing the all-buckets regret note: %v", tab.Title, tab.Notes)
	}
}

func TestRunFig7And9Buckets(t *testing.T) {
	e := tinyEnv()
	tabs := RunFig7(e)
	if len(tabs) != 2 {
		t.Fatalf("want 2 tables (d=2,3), got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no buckets — workload has no answerable queries", tab.Title)
		}
		for _, row := range tab.Rows {
			if !strings.HasPrefix(row[0], "10^") {
				t.Errorf("bucket label %q", row[0])
			}
		}
		checkRegretColumn(t, tab)
	}
	t9 := RunFig9(e)
	if len(t9) != 2 {
		t.Fatalf("Fig9 should give Wiki and IMDB tables")
	}
	if len(t9[0].Rows) == 0 {
		t.Errorf("Fig9(a) empty")
	}
	for _, tab := range t9 {
		checkRegretColumn(t, tab)
	}
}

func TestRunFig8(t *testing.T) {
	tab := RunFig8(tinyEnv())
	if len(tab.Rows) == 0 {
		t.Errorf("Fig8 should have at least one bucket")
	}
}

func TestRunFig10(t *testing.T) {
	e := tinyEnv()
	tab := RunFig10(e)
	if len(tab.Rows) != 10 {
		t.Fatalf("want 10 rows (10%%..100%%), got %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "10%" || tab.Rows[9][0] != "100%" {
		t.Errorf("percent labels wrong: %v", tab.Rows)
	}
}

func TestRunExpK(t *testing.T) {
	tab := RunExpK(tinyEnv())
	if len(tab.Rows) != 4 {
		t.Fatalf("want rows for k=1,10,100,1000; got %d", len(tab.Rows))
	}
}

func TestRunFig11And12(t *testing.T) {
	e := tinyEnv()
	tabs := RunFig11(e)
	if len(tabs) != 2 {
		t.Fatalf("Fig11 should give time and precision tables")
	}
	if len(tabs[0].Rows) != 6 {
		t.Errorf("Λ sweep should have 6 rows, got %d", len(tabs[0].Rows))
	}
	// Precision cells parse as numbers in [0,1].
	for _, row := range tabs[1].Rows {
		for _, cell := range row[1:] {
			if !(cell >= "0" && cell <= "2") {
				t.Errorf("precision cell %q", cell)
			}
		}
	}
	t12 := RunFig12(e)
	if len(t12) != 2 || len(t12[0].Rows) != 7 {
		t.Fatalf("Fig12 shape wrong")
	}
	// ρ=1.00 row must have precision 1.00 everywhere (no sampling).
	last := t12[1].Rows[len(t12[1].Rows)-1]
	if last[0] != "1.00" {
		t.Fatalf("last row should be ρ=1.00, got %v", last)
	}
	for _, cell := range last[1:] {
		if cell != "1.00" {
			t.Errorf("ρ=1 precision must be 1.00, got %q", cell)
		}
	}
}

func TestRunFig13(t *testing.T) {
	tab := RunFig13(tinyEnv())
	if len(tab.Rows) == 0 {
		t.Fatalf("Fig13 has no rows")
	}
	for _, row := range tab.Rows {
		if len(row) != 4 {
			t.Errorf("row shape wrong: %v", row)
		}
	}
}

func TestRunCaseStudy(t *testing.T) {
	out := RunCaseStudy(tinyEnv(), "city company")
	if !strings.Contains(out, "Top individual valid subtrees") {
		t.Errorf("case study missing individual section:\n%s", out)
	}
	if !strings.Contains(out, "tree pattern as table answer") {
		t.Errorf("case study missing pattern section:\n%s", out)
	}
}

func TestRunFig16(t *testing.T) {
	e := tinyEnv()
	tab := RunFig16(e)
	if len(tab.Rows) == 0 {
		t.Fatalf("Fig16 empty")
	}
	for _, row := range tab.Rows {
		m := row[0]
		if m < "1" || m > "9" {
			t.Errorf("m label %q", m)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int64{0: 0, 1: 10, 9: 10, 10: 100, 99: 100, 100: 1000, 1234: 10000}
	for n, want := range cases {
		if got := bucketOf(n); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", n, got, want)
		}
	}
	if bucketLabel(10) != "10^1" || bucketLabel(100000) != "10^5" {
		t.Errorf("bucketLabel wrong")
	}
}

func TestTimingFormat(t *testing.T) {
	var tm timing
	if tm.minGeoMax() != "-" {
		t.Errorf("empty timing should render '-'")
	}
	if fmtMs(0.5) != "0.50ms" || fmtMs(5) != "5.0ms" || fmtMs(50) != "50ms" || fmtMs(5000) != "5.0s" {
		t.Errorf("fmtMs wrong: %s %s %s %s", fmtMs(0.5), fmtMs(5), fmtMs(50), fmtMs(5000))
	}
}

func TestRunAblations(t *testing.T) {
	tabs := RunAblations(tinyEnv())
	if len(tabs) != 3 {
		t.Fatalf("want 3 ablation tables, got %d", len(tabs))
	}
	if len(tabs[0].Rows) != 2 {
		t.Errorf("tree-shape ablation should have 2 rows")
	}
	if len(tabs[1].Rows) != 4 {
		t.Errorf("aggregation ablation should have 4 rows")
	}
	// Sum row overlaps 100% with itself.
	if tabs[1].Rows[0][2] != "1.00" {
		t.Errorf("sum vs sum overlap must be 1.00, got %q", tabs[1].Rows[0][2])
	}
	// Strict filtering cannot find more subtrees than tuple semantics.
	if tabs[0].Rows[1][2] > tabs[0].Rows[0][2] && len(tabs[0].Rows[1][2]) >= len(tabs[0].Rows[0][2]) {
		t.Errorf("strict mode found more subtrees than tuples: %v vs %v", tabs[0].Rows[1][2], tabs[0].Rows[0][2])
	}
}
