package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/mahif/mahif/internal/core"
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
	vdb, err := w.Load()
	if err != nil {
		panic(err)
	}
	engine := core.New(vdb)
	if v == core.VariantNaive {
		start := time.Now()
		_, stats, err := engine.Naive(w.Mods)
		if err != nil {
			panic(err)
		}
		return measurement{total: time.Since(start), naive: stats}
	}
	opts := core.OptionsFor(v)
	start := time.Now()
	_, stats, err := engine.WhatIf(w.Mods, opts)
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

func header(title string, cols ...string) {
	fmt.Printf("\n== %s ==\n", title)
	fmt.Printf("%-10s", "U")
	for _, c := range cols {
		fmt.Printf(" %12s", c)
	}
	fmt.Println(" (ms)")
}

// sweep runs the U-sweep for one dataset over the given variants and
// prints one row per history length.
func (h *harness) sweep(title string, dsID string, cfg workload.Config, variants ...core.Variant) {
	cols := make([]string, len(variants))
	for i, v := range variants {
		cols[i] = string(v)
	}
	header(fmt.Sprintf("%s — %s", title, dsID), cols...)
	ds := h.dataset(dsID)
	for _, u := range h.updates {
		c := cfg
		c.Updates = u
		w := h.gen(ds, c)
		fmt.Printf("%-10d", u)
		for _, v := range variants {
			m := h.run(w, v)
			fmt.Printf(" %12s", ms(m.total))
		}
		fmt.Println()
	}
}

// Experiments ----------------------------------------------------------------

// fig14: naive vs the fully optimized Mahif across datasets.
func (h *harness) fig14() {
	for _, ds := range []string{dsTaxiS, dsTaxiL, dsTPCC, dsYCSB} {
		h.sweep("Fig 14: Naive vs Mahif", ds, workload.Config{},
			core.VariantNaive, core.VariantRFull)
	}
}

// fig15: cost breakdown of the naive algorithm.
func (h *harness) fig15() {
	for _, dsID := range []string{dsTaxiS, dsTaxiL} {
		header("Fig 15: Naive breakdown — "+dsID, "Creation", "Exe", "Delta")
		ds := h.dataset(dsID)
		for _, u := range h.updates {
			w := h.gen(ds, workload.Config{Updates: u})
			m := h.run(w, core.VariantNaive)
			fmt.Printf("%-10d %12s %12s %12s\n", u,
				ms(m.naive.Creation), ms(m.naive.Execute), ms(m.naive.Delta))
		}
	}
}

// fig16: cost breakdown of Mahif (PS vs execution) against plain R.
func (h *harness) fig16() {
	for _, dsID := range []string{dsTaxiS, dsTaxiL} {
		header("Fig 16: Mahif breakdown — "+dsID, "PS", "Exe", "R+PS+DS", "R")
		ds := h.dataset(dsID)
		for _, u := range h.updates {
			w := h.gen(ds, workload.Config{Updates: u})
			full := h.run(w, core.VariantRFull)
			r := h.run(w, core.VariantR)
			exe := full.total - full.stats.ProgramSlicing
			fmt.Printf("%-10d %12s %12s %12s %12s\n", u,
				ms(full.stats.ProgramSlicing), ms(exe), ms(full.total), ms(r.total))
		}
	}
}

// fig17: multiple modifications.
func (h *harness) fig17() {
	header("Fig 17: multiple modifications — "+dsTaxiS+" (U=100)",
		"R", "R+PS", "R+DS", "R+PS+DS")
	ds := h.dataset(dsTaxiS)
	for _, m := range []int{1, 5, 10, 20} {
		w := h.gen(ds, workload.Config{Updates: 100, Mods: m})
		fmt.Printf("%-10d", m)
		for _, v := range []core.Variant{core.VariantR, core.VariantRPS, core.VariantRDS, core.VariantRFull} {
			fmt.Printf(" %12s", ms(h.run(w, v).total))
		}
		fmt.Println()
	}
}

// fig18: reenactment alone vs fully optimized.
func (h *harness) fig18() {
	for _, ds := range []string{dsTaxiS, dsTaxiL, dsTPCC, dsYCSB} {
		h.sweep("Fig 18: R vs R+PS+DS", ds, workload.Config{},
			core.VariantR, core.VariantRFull)
	}
}

// fig19: varying the percentage of dependent updates.
func (h *harness) fig19() {
	header("Fig 19: dependent updates — "+dsTaxiS+" (U=100, T10)", "R+PS", "R+PS+DS")
	ds := h.dataset(dsTaxiS)
	for _, d := range []int{1, 10, 25, 50, 75, 100} {
		w := h.gen(ds, workload.Config{Updates: 100, DependentPct: d})
		fmt.Printf("%-10d %12s %12s\n", d,
			ms(h.run(w, core.VariantRPS).total), ms(h.run(w, core.VariantRFull).total))
	}
}

// fig20: varying the fraction of affected data.
func (h *harness) fig20() {
	header("Fig 20: affected data — "+dsTaxiS+" (U=100, D1)",
		"R", "R+PS", "R+DS", "R+PS+DS")
	ds := h.dataset(dsTaxiS)
	for _, t := range []float64{3, 12, 38, 68, 80} {
		w := h.gen(ds, workload.Config{Updates: 100, DependentPct: 1, AffectedPct: t})
		fmt.Printf("%-10.0f", t)
		for _, v := range []core.Variant{core.VariantR, core.VariantRPS, core.VariantRDS, core.VariantRFull} {
			fmt.Printf(" %12s", ms(h.run(w, v).total))
		}
		fmt.Println()
	}
}

// figDatasets implements Figs. 21–23: the optimization variants across
// all datasets at one affected-data setting.
func (h *harness) figDatasets(fig string, t float64) {
	for _, ds := range []string{dsTaxiS, dsTaxiL, dsTPCC, dsYCSB} {
		h.sweep(fig, ds, workload.Config{AffectedPct: t},
			core.VariantRPS, core.VariantRDS, core.VariantRFull)
	}
}

func (h *harness) fig21() { h.figDatasets("Fig 21: datasets at T0", 0.5) }
func (h *harness) fig22() { h.figDatasets("Fig 22: datasets at T10", 10) }
func (h *harness) fig23() { h.figDatasets("Fig 23: datasets at T25", 25) }

// fig24: insert-heavy workloads.
func (h *harness) fig24() {
	for _, ds := range []string{dsTaxiS, dsTaxiL} {
		h.sweep("Fig 24: inserts I10 T10", ds, workload.Config{InsertPct: 10},
			core.VariantRPS, core.VariantRDS, core.VariantRFull)
	}
}

// fig25: mixed workloads.
func (h *harness) fig25() {
	for _, ds := range []string{dsTaxiS, dsTaxiL} {
		h.sweep("Fig 25: mixed I10 X10 T10", ds,
			workload.Config{InsertPct: 10, DeletePct: 10},
			core.VariantRPS, core.VariantRDS, core.VariantRFull)
	}
}
