// Command kbbench runs the full experiment suite reproducing every table
// and figure of the paper's Section 5 (and Appendix C) on the synthetic
// Wiki/IMDB stand-ins, printing one formatted table per artifact.
//
// Usage:
//
//	kbbench                      # full suite at default scale
//	kbbench -only fig7,fig11     # selected experiments
//	kbbench -entities 6000 -perm 10   # smaller/faster
//
// How fast the served system is — end to end and layer by layer — is
// measured by the repo's benchmark, benchmark/ (see benchmark/README.md),
// not by this command.
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"kbtable/internal/bench"
)

func main() {
	entities := flag.Int("entities", 12000, "SynthWiki entities")
	types := flag.Int("types", 120, "SynthWiki types")
	movies := flag.Int("movies", 6000, "SynthIMDB movies")
	perM := flag.Int("perm", 20, "queries per keyword count (paper: 50)")
	k := flag.Int("k", 100, "top-k cutoff")
	seed := flag.Int64("seed", 1, "seed")
	only := flag.String("only", "", "comma-separated subset: fig6,fig7,fig8,fig9,fig10,expk,fig11,fig12,fig13,case,fig16,ablations")
	caseQuery := flag.String("case-query", "washington city", "case-study query (Figures 14-15)")
	flag.Parse()

	env := bench.NewEnv(bench.Config{
		WikiEntities: *entities,
		WikiTypes:    *types,
		IMDBMovies:   *movies,
		PerM:         *perM,
		K:            *k,
		Seed:         *seed,
	})

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	start := time.Now()
	show := func(tabs ...bench.Table) {
		for _, t := range tabs {
			fmt.Println(t.String())
		}
	}
	if sel("fig6") {
		show(bench.RunFig6(env))
	}
	if sel("fig7") {
		show(bench.RunFig7(env)...)
	}
	if sel("fig8") {
		show(bench.RunFig8(env))
	}
	if sel("fig9") {
		show(bench.RunFig9(env)...)
	}
	if sel("fig10") {
		show(bench.RunFig10(env))
	}
	if sel("expk") {
		show(bench.RunExpK(env))
	}
	if sel("fig11") {
		show(bench.RunFig11(env)...)
	}
	if sel("fig12") {
		show(bench.RunFig12(env)...)
	}
	if sel("fig13") {
		show(bench.RunFig13(env))
	}
	if sel("case") {
		fmt.Println(bench.RunCaseStudy(env, *caseQuery))
	}
	if sel("fig16") {
		show(bench.RunFig16(env))
	}
	if sel("ablations") {
		show(bench.RunAblations(env)...)
	}
	fmt.Printf("suite completed in %v\n", time.Since(start).Round(time.Second))
}
