// Command benchmark is the repository's end-to-end and per-layer
// benchmark: four workloads through the /v1 HTTP API against the real
// stack started in-process, and a traced run that says which layer a
// request's time went to. See README.md in this directory.
//
//	benchmark -workload search_cold -seed 1 -seconds 10 -trace 0
//	benchmark -workload all -trace both -out results.json
//	benchmark compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is the -out file: every outcome of one invocation with the
// machine it ran on.
type report struct {
	Env      env        `json:"env"`
	Seed     int64      `json:"seed"`
	Seconds  int        `json:"seconds"`
	Outcomes []*outcome `json:"outcomes"`
}

type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

func readEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 12, "length of the timed run")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced per-layer run; both: one after the other")
	outPath := fs.String("out", "", "write every outcome as JSON to this file")
	tracePath := fs.String("trace-out", "", "write the spans of a traced run to this file (one workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q (want 0, 1 or both)\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep := report{Env: readEnv(), Seed: *seed, Seconds: *seconds}
	fmt.Fprintf(stderr, "benchmark: nproc=%d GOMAXPROCS=%d %s %s cpu=%q\n",
		rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.OSArch, rep.Env.CPUModel)
	code := 0
	for _, w := range ws {
		for _, traced := range modes {
			cfg := runConfig{
				workload: w, seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: traced,
				scale: fullScale, tmp: fmt.Sprintf(".bench_build/run-%d", os.Getpid()), traceOut: *tracePath,
			}
			out, err := runWorkload(ctx, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			rep.Outcomes = append(rep.Outcomes, out)
			printOutcome(stderr, out)
			if !out.Correct {
				code = 1
			}
			// The result line: the last line of standard output when one
			// workload runs in one mode.
			line, err := json.Marshal(struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}{out.Correct, out.Attempted, out.Failed, out.Metrics})
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// printOutcome lists every metric of an outcome by name with its unit.
func printOutcome(w io.Writer, out *outcome) {
	mode := "end-to-end"
	if out.Traced {
		mode = "traced per-layer"
	}
	fmt.Fprintf(w, "\n%s, seed %d, %s run: attempted %d, failed %d, correct %v\n",
		out.Workload, out.Seed, mode, out.Attempted, out.Failed, out.Correct)
	keys := make([]string, 0, len(out.Samples))
	for k := range out.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  samples %-34s %12d\n", k, out.Samples[k])
	}
	defs := endToEnd
	if out.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := out.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, f := range out.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, n := range out.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(out.Shares) > 0 {
		printShares(w, out.Workload, out.Shares)
	}
}
