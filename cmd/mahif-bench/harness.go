package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/workload"
)

// harness holds the sweep configuration and provides measurement
// helpers shared by all experiments.
type harness struct {
	rows    int
	large   int
	seed    int64
	updates []int
	quick   bool // smoke-run scale: shrink histories and sweeps
}

// dataset ids used across the sweeps, mirroring §13.1.
const (
	dsTaxiS = "Taxi(S)"
	dsTaxiL = "Taxi(L)"
	dsTPCC  = "TPCC"
	dsYCSB  = "YCSB"
)

func (h *harness) dataset(id string) *workload.Dataset {
	switch id {
	case dsTaxiS:
		return workload.Taxi(h.rows, h.seed)
	case dsTaxiL:
		return workload.Taxi(h.rows*h.large, h.seed)
	case dsTPCC:
		return workload.TPCC(h.rows, h.seed)
	case dsYCSB:
		return workload.YCSB(h.rows, h.seed)
	}
	panic("unknown dataset " + id)
}

// measurement is one answered query with full statistics.
type measurement struct {
	total time.Duration
	stats *core.Stats
	naive *core.NaiveStats
}

// run loads the workload and answers it once under the variant.
func (h *harness) run(w *workload.Workload, v core.Variant) measurement {
	return answer(load(w), w.Mods, v)
}

// load builds an engine over the workload's dataset and history.
func load(w *workload.Workload) *core.Engine {
	vdb, err := w.Load()
	if err != nil {
		panic(err)
	}
	return core.New(vdb)
}

// answer times one answer to mods under the variant.
func answer(engine *core.Engine, mods []history.Modification, v core.Variant) measurement {
	if v == core.VariantNaive {
		start := time.Now()
		_, stats, err := engine.Naive(mods)
		if err != nil {
			panic(err)
		}
		return measurement{total: time.Since(start), naive: stats}
	}
	opts := core.OptionsFor(v)
	start := time.Now()
	_, stats, err := engine.WhatIf(mods, opts)
	if err != nil {
		panic(err)
	}
	return measurement{total: time.Since(start), stats: stats}
}

// gen builds a workload with defaults matching §13.2 (T10, D10, one
// modification of the first update) unless overridden.
func (h *harness) gen(ds *workload.Dataset, cfg workload.Config) *workload.Workload {
	if cfg.DependentPct == 0 {
		cfg.DependentPct = 10
	}
	if cfg.AffectedPct == 0 {
		cfg.AffectedPct = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = h.seed + int64(cfg.Updates)
	}
	w, err := workload.Generate(ds, cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// timedRuns is how many times the template and howto experiments run
// a cell's timed section; the report records the median, so one run
// slowed by the box does not read as movement between two reports.
const timedRuns = 5

// median returns the middle of ds (the upper middle of an even count).
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%8.1f", float64(d.Microseconds())/1000)
}

// header prints a table's title and column heads; axis heads the
// first column, which holds each row's swept value.
func header(title, axis string, cols ...string) {
	fmt.Printf("\n== %s ==\n", title)
	fmt.Printf("%-10s", axis)
	for _, c := range cols {
		fmt.Printf(" %12s", c)
	}
	fmt.Println(" (ms)")
}

// Figures ----------------------------------------------------------------

// figure is one figure of the paper's evaluation (§13). -exp <id>
// prints a table per dataset and a row per axis value;
// BenchmarkFigures times the same cells.
type figure struct {
	id, title string
	datasets  []string
	// axis names the swept parameter: "U" sweeps the -updates list,
	// "M", "D" or "T" sweeps values with cfg.Updates fixed.
	axis   string
	values []int
	// cfg fixes the rest of the workload; gen fills §13.2's defaults.
	cfg      workload.Config
	variants []core.Variant
	cols     columns
}

// columns says what a figure's row holds.
type columns int

const (
	totals     columns = iota // each variant's total
	naiveSplit                // Fig. 15: Alg. 1's phases
	mahifSplit                // Fig. 16: R+PS+DS's program slicing and the rest, beside R
)

var (
	allDatasets  = []string{dsTaxiS, dsTaxiL, dsTPCC, dsYCSB}
	taxiDatasets = []string{dsTaxiS, dsTaxiL}
	slicings     = []core.Variant{core.VariantRPS, core.VariantRDS, core.VariantRFull}
	reenactments = []core.Variant{core.VariantR, core.VariantRPS, core.VariantRDS, core.VariantRFull}
)

// figures is the paper's evaluation, one row per figure.
var figures = []figure{
	{id: "fig14", title: "Fig 14: Naive vs Mahif", datasets: allDatasets, axis: "U",
		variants: []core.Variant{core.VariantNaive, core.VariantRFull}},
	{id: "fig15", title: "Fig 15: Naive breakdown", datasets: taxiDatasets, axis: "U",
		variants: []core.Variant{core.VariantNaive}, cols: naiveSplit},
	{id: "fig16", title: "Fig 16: Mahif breakdown", datasets: taxiDatasets, axis: "U",
		variants: []core.Variant{core.VariantRFull, core.VariantR}, cols: mahifSplit},
	{id: "fig17", title: "Fig 17: multiple modifications (U=100)", datasets: []string{dsTaxiS},
		axis: "M", values: []int{1, 5, 10, 20},
		cfg: workload.Config{Updates: 100}, variants: reenactments},
	{id: "fig18", title: "Fig 18: R vs R+PS+DS", datasets: allDatasets, axis: "U",
		variants: []core.Variant{core.VariantR, core.VariantRFull}},
	{id: "fig19", title: "Fig 19: dependent updates (U=100, T10)", datasets: []string{dsTaxiS},
		axis: "D", values: []int{1, 10, 25, 50, 75, 100},
		cfg: workload.Config{Updates: 100}, variants: []core.Variant{core.VariantRPS, core.VariantRFull}},
	{id: "fig20", title: "Fig 20: affected data (U=100, D1)", datasets: []string{dsTaxiS},
		axis: "T", values: []int{3, 12, 38, 68, 80},
		cfg: workload.Config{Updates: 100, DependentPct: 1}, variants: reenactments},
	{id: "fig21", title: "Fig 21: datasets at T0", datasets: allDatasets, axis: "U",
		cfg: workload.Config{AffectedPct: 0.5}, variants: slicings},
	{id: "fig22", title: "Fig 22: datasets at T10", datasets: allDatasets, axis: "U",
		cfg: workload.Config{AffectedPct: 10}, variants: slicings},
	{id: "fig23", title: "Fig 23: datasets at T25", datasets: allDatasets, axis: "U",
		cfg: workload.Config{AffectedPct: 25}, variants: slicings},
	{id: "fig24", title: "Fig 24: inserts I10 T10", datasets: taxiDatasets, axis: "U",
		cfg: workload.Config{InsertPct: 10}, variants: slicings},
	{id: "fig25", title: "Fig 25: mixed I10 X10 T10", datasets: taxiDatasets, axis: "U",
		cfg: workload.Config{InsertPct: 10, DeletePct: 10}, variants: slicings},
}

// points returns f's axis values under h: the -updates list for "U".
func (h *harness) points(f figure) []int {
	if f.axis == "U" {
		return h.updates
	}
	return f.values
}

// config returns f's workload configuration at axis value x.
func (f figure) config(x int) workload.Config {
	c := f.cfg
	switch f.axis {
	case "U":
		c.Updates = x
	case "M":
		c.Mods = x
	case "D":
		c.DependentPct = x
	case "T":
		c.AffectedPct = float64(x)
	}
	return c
}

// runFigure prints f: a table per dataset, a row per axis value.
func (h *harness) runFigure(f figure) {
	cols := make([]string, len(f.variants))
	for i, v := range f.variants {
		cols[i] = string(v)
	}
	switch f.cols {
	case naiveSplit:
		cols = []string{"Creation", "Exe", "Delta"}
	case mahifSplit:
		cols = []string{"PS", "Exe", "R+PS+DS", "R"}
	}
	for _, dsID := range f.datasets {
		header(f.title+" — "+dsID, f.axis, cols...)
		ds := h.dataset(dsID)
		for _, x := range h.points(f) {
			w := h.gen(ds, f.config(x))
			got := make([]measurement, len(f.variants))
			cells := make([]time.Duration, len(f.variants))
			for i, v := range f.variants {
				got[i] = h.run(w, v)
				cells[i] = got[i].total
			}
			switch f.cols {
			case naiveSplit:
				n := got[0].naive
				cells = []time.Duration{n.Creation, n.Execute, n.Delta}
			case mahifSplit:
				full, ps := got[0], got[0].stats.ProgramSlicing
				cells = []time.Duration{ps, full.total - ps, full.total, got[1].total}
			}
			fmt.Printf("%-10d", x)
			for _, d := range cells {
				fmt.Printf(" %12s", ms(d))
			}
			fmt.Println()
		}
	}
}
