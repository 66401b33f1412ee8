package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// spread.json records, per workload and end-to-end metric, the spread
// between runs of one commit on the machine README.md names: the distance
// between the quartiles of ten runs with ten seeds, as a share of their
// median. A metric whose spread exceeds its bound cannot be resolved.
//
//go:embed spread.json
var spreadJSON []byte

func recordedSpread() (map[string]map[string]float64, error) {
	var s map[string]map[string]float64
	if err := json.Unmarshal(spreadJSON, &s); err != nil {
		return nil, fmt.Errorf("spread.json: %w", err)
	}
	return s, nil
}

// verdict judges one end-to-end metric of one workload: how much worse
// the new value is than the old as a share of the old, against the
// metric's bound.
func verdict(d metricDef, spread, old, new float64) (worse float64, v string) {
	if old == 0 {
		return 0, "unresolved"
	}
	worse = (new - old) / old
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return worse, v
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) endToEnd(workload string) *outcome {
	for _, o := range r.Outcomes {
		if o.Workload == workload && !o.Traced {
			return o
		}
	}
	return nil
}

// compareReports prints one row per workload and end-to-end metric and
// returns how many are worse. It refuses reports that measured different
// inputs.
func compareReports(old, new *report, spread map[string]map[string]float64, w io.Writer) (int, error) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tverdict")
	worseCount, rows := 0, 0
	for _, wl := range workloads {
		o, n := old.endToEnd(wl.Name), new.endToEnd(wl.Name)
		if o == nil || n == nil {
			continue
		}
		for k, fp := range o.Fingerprints {
			if n.Fingerprints[k] != fp {
				return 0, fmt.Errorf("%s: the reports measured different inputs (%s differs); run both with the same -seed", wl.Name, k)
			}
		}
		for _, d := range endToEnd {
			ov, nv := o.Metrics[d.Name].Value, n.Metrics[d.Name].Value
			_, v := verdict(d, spread[wl.Name][d.Name], ov, nv)
			if v == "worse" {
				worseCount++
			}
			rows++
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.3f of %.4f\t%.0f%% %s\t%s\n",
				wl.Name, d.Name, ov, d.Unit, nv, d.Unit, ratio(nv, ov), ov, 100*d.Bound, d.Better, v)
		}
	}
	if rows == 0 {
		return 0, fmt.Errorf("the reports share no end-to-end run of any workload")
	}
	return worseCount, tw.Flush()
}

func compareFiles(oldPath, newPath string, w io.Writer) (int, error) {
	old, err := loadReport(oldPath)
	if err != nil {
		return 0, err
	}
	new, err := loadReport(newPath)
	if err != nil {
		return 0, err
	}
	spread, err := recordedSpread()
	if err != nil {
		return 0, err
	}
	return compareReports(old, new, spread, w)
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare old.json new.json")
		return 2
	}
	worse, err := compareFiles(args[0], args[1], stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	if worse > 0 {
		fmt.Fprintf(stderr, "benchmark compare: %d metrics worse than their bound\n", worse)
		return 1
	}
	return 0
}
