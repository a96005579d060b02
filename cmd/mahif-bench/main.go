// Command mahif-bench regenerates the figures of the paper's evaluation
// (§13, Figs. 14–25: -exp fig14 … fig25) over the synthetic workload
// generators. One table, figures in harness.go, defines each figure's
// datasets, swept axis (U from -updates, or M, D or T), workload and
// variants; BenchmarkFigures times the same cells at reduced scale. Row
// counts are scaled for a single machine (flag -rows; the "large"
// dataset is -large times bigger), so absolute numbers differ from the
// paper, but the comparisons — who wins, by what factor, where the
// crossovers fall — are the reproduction target. Beside the figures it
// runs the experiments no Go benchmark or bench/ gate cell measures
// (durability, replication, templates, how-to search), each writing a
// BENCH_<id>.json report; -h lists the experiment ids.
//
// Usage:
//
//	mahif-bench -exp fig14        # one experiment
//	mahif-bench -exp all          # everything (takes a while)
//	mahif-bench -exp fig22 -rows 50000 -updates 10,20,50
//	mahif-bench -exp cluster -quick -cpuprofile cpu.out
//	go test -run=NONE -bench 'Figures/fig14' ./cmd/mahif-bench   # fig14's cells, repeated
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

func main() {
	ids := strings.Join(experimentIDs(), ", ") + ", all"
	exp := flag.String("exp", "", "experiment id: "+ids)
	rows := flag.Int("rows", 20000, "row count of the small datasets (stand-in for the paper's 5M)")
	large := flag.Int("large", 4, "multiplier for the large taxi dataset (stand-in for 50M)")
	seed := flag.Int64("seed", 1, "workload seed")
	updates := flag.String("updates", "10,20,50,100,200", "history lengths (U, each at least 1) for the sweeps")
	quick := flag.Bool("quick", false, "shrink experiment scale for smoke runs (CI)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the experiment) to this file")
	flag.StringVar(&persistOut, "persistout", persistOut, "output path for the persist experiment's JSON report")
	flag.StringVar(&clusterOut, "clusterout", clusterOut, "output path for the cluster experiment's JSON report")
	flag.StringVar(&templateOut, "templateout", templateOut, "output path for the template experiment's JSON report")
	flag.StringVar(&howtoOut, "howtoout", howtoOut, "output path for the howto experiment's JSON report")
	flag.Parse()

	us, err := parseInts(*updates)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mahif-bench:", err)
		os.Exit(2)
	}
	h := &harness{rows: *rows, large: *large, seed: *seed, updates: us, quick: *quick}

	exps := experiments(h)
	var runs []func()
	switch *exp {
	case "all":
		for _, id := range experimentIDs() {
			runs = append(runs, exps[id])
		}
	case "":
		fmt.Fprintf(os.Stderr, "mahif-bench: -exp required (%s)\n", ids)
		os.Exit(2)
	default:
		run, ok := exps[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "mahif-bench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		runs = append(runs, run)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mahif-bench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mahif-bench:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	for _, run := range runs {
		run()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mahif-bench:", err)
			os.Exit(2)
		}
		defer f.Close()
		runtime.GC() // surface live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mahif-bench:", err)
			os.Exit(2)
		}
	}
}

// experiments maps each -exp id to its run over h.
func experiments(h *harness) map[string]func() {
	exps := map[string]func(){
		"persist": h.persistExp, "cluster": h.clusterExp, "template": h.templateExp,
		"howto": h.howtoExp,
	}
	for _, f := range figures {
		exps[f.id] = func() { h.runFigure(f) }
	}
	return exps
}

// experimentIDs returns the -exp ids in sorted order (the order of
// -exp all).
func experimentIDs() []string {
	var ids []string
	for id := range experiments(nil) {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// parseInts parses the -updates list: history lengths of at least 1
// (workload.Generate would read 0 or less as its default of 10).
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -updates entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
