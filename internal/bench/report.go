package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"kbtable/internal/search"
)

// Table is one experiment artifact, formatted like the paper's tables with
// error-bar style min / geometric-average / max cells where applicable.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as fixed-width ASCII.
func (t Table) String() string {
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for i, w := range widths {
		total += w
		if i > 0 {
			total += 2
		}
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// timing accumulates per-group execution times.
type timing struct {
	durs []time.Duration
}

func (t *timing) add(d time.Duration) { t.durs = append(t.durs, d) }

func (t *timing) n() int { return len(t.durs) }

// minGeoMax formats "min / geo-avg / max" in milliseconds, the paper's
// error-bar reporting.
func (t *timing) minGeoMax() string {
	if len(t.durs) == 0 {
		return "-"
	}
	mn, mx := t.durs[0], t.durs[0]
	logSum := 0.0
	for _, d := range t.durs {
		if d < mn {
			mn = d
		}
		if d > mx {
			mx = d
		}
		ms := float64(d) / float64(time.Millisecond)
		if ms < 1e-3 {
			ms = 1e-3
		}
		logSum += math.Log(ms)
	}
	geo := math.Exp(logSum / float64(len(t.durs)))
	return fmt.Sprintf("%s/%s/%s", fmtMs(float64(mn)/float64(time.Millisecond)), fmtMs(geo), fmtMs(float64(mx)/float64(time.Millisecond)))
}

// geoMs returns only the geometric average in milliseconds.
func (t *timing) geoMs() float64 {
	if len(t.durs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, d := range t.durs {
		ms := float64(d) / float64(time.Millisecond)
		if ms < 1e-3 {
			ms = 1e-3
		}
		logSum += math.Log(ms)
	}
	return math.Exp(logSum / float64(len(t.durs)))
}

func fmtMs(ms float64) string {
	switch {
	case ms >= 1000:
		return fmt.Sprintf("%.1fs", ms/1000)
	case ms >= 10:
		return fmt.Sprintf("%.0fms", ms)
	case ms >= 1:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.2fms", ms)
	}
}

// bucketOf assigns a count to its decade group: group 10^k holds counts in
// [10^(k-1), 10^k), matching "group 10^2 contains all queries with 10-99
// tree patterns". Counts of zero return 0 (excluded).
func bucketOf(n int64) int64 {
	if n <= 0 {
		return 0
	}
	b := int64(10)
	for n >= b {
		b *= 10
	}
	return b
}

// bucketLabel renders a decade bucket as 10^k.
func bucketLabel(b int64) string {
	k := 0
	for v := b; v > 1; v /= 10 {
		k++
	}
	return fmt.Sprintf("10^%d", k)
}

// sortedBuckets returns the keys of a bucket map in ascending order.
func sortedBuckets[T any](m map[int64]T) []int64 {
	out := make([]int64, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// algoSet groups the three timings of one query group.
type algoSet struct {
	baseline timing
	letopk   timing
	petopk   timing
	auto     regret
}

// regret accumulates the Auto planner's regret over a query group:
// Σ t(pick) / Σ min(t_PE, t_LE), where t(pick) is the time of the
// algorithm Auto resolves to. 1 means Auto always picked the faster one.
type regret struct {
	picked, best time.Duration
}

func (r *regret) add(pick search.Algo, le, pe time.Duration) {
	t := le
	if pick == search.AlgoPE {
		t = pe
	}
	r.picked += t
	r.best += min(le, pe)
}

func (r regret) String() string {
	if r.best <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(r.picked)/float64(r.best))
}
