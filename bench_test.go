// Benchmarks regenerating the paper's evaluation (§13) at reduced
// scale — one testing.B benchmark per table/figure, mirroring the
// cmd/mahif-bench harness (which runs the full sweeps). Shapes to look
// for are documented per benchmark.
package mahif_test

import (
	"fmt"
	"testing"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/workload"
)

// benchRows keeps the testing.B versions quick; cmd/mahif-bench scales
// higher.
const benchRows = 8000

func benchDataset(b *testing.B, name string, rows int) *workload.Dataset {
	b.Helper()
	ds, err := workload.ByName(name, rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchWorkload(b *testing.B, ds *workload.Dataset, cfg workload.Config) *workload.Workload {
	b.Helper()
	if cfg.DependentPct == 0 {
		cfg.DependentPct = 10
	}
	if cfg.AffectedPct == 0 {
		cfg.AffectedPct = 10
	}
	cfg.Seed = 1
	w, err := workload.Generate(ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// runVariant measures answering the query once per iteration; loading
// the history (setup) happens outside the timer.
func runVariant(b *testing.B, w *workload.Workload, v core.Variant) {
	b.Helper()
	vdb, err := w.Load()
	if err != nil {
		b.Fatal(err)
	}
	engine := core.New(vdb)
	opts := core.OptionsFor(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v == core.VariantNaive {
			if _, _, err := engine.Naive(w.Mods); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, _, err := engine.WhatIf(w.Mods, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14 — naive vs fully optimized Mahif (paper Fig. 14):
// expect N slowest, R+PS+DS fastest, the gap growing with U.
func BenchmarkFig14(b *testing.B) {
	ds := benchDataset(b, "taxi", benchRows)
	for _, u := range []int{10, 50} {
		w := benchWorkload(b, ds, workload.Config{Updates: u})
		for _, v := range []core.Variant{core.VariantNaive, core.VariantRFull} {
			b.Run(fmt.Sprintf("U%d/%s", u, v), func(b *testing.B) { runVariant(b, w, v) })
		}
	}
}

// BenchmarkFig15 — the naive algorithm's cost (its breakdown is printed
// by cmd/mahif-bench -exp fig15); here the total across sizes.
func BenchmarkFig15(b *testing.B) {
	for _, rows := range []int{benchRows, 4 * benchRows} {
		ds := benchDataset(b, "taxi", rows)
		w := benchWorkload(b, ds, workload.Config{Updates: 20})
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) { runVariant(b, w, core.VariantNaive) })
	}
}

// BenchmarkFig16 — Mahif breakdown: R+PS+DS vs plain R (Fig. 16);
// expect the optimized variant well under R at equal U.
func BenchmarkFig16(b *testing.B) {
	ds := benchDataset(b, "taxi", benchRows)
	for _, u := range []int{10, 50} {
		w := benchWorkload(b, ds, workload.Config{Updates: u})
		for _, v := range []core.Variant{core.VariantR, core.VariantRFull} {
			b.Run(fmt.Sprintf("U%d/%s", u, v), func(b *testing.B) { runVariant(b, w, v) })
		}
	}
}

// BenchmarkFig17 — multiple modifications (Fig. 17): cost rises with M,
// R+PS+DS stays ahead of R.
func BenchmarkFig17(b *testing.B) {
	ds := benchDataset(b, "taxi", benchRows)
	for _, m := range []int{1, 5, 10} {
		w := benchWorkload(b, ds, workload.Config{Updates: 40, Mods: m})
		for _, v := range []core.Variant{core.VariantR, core.VariantRFull} {
			b.Run(fmt.Sprintf("M%d/%s", m, v), func(b *testing.B) { runVariant(b, w, v) })
		}
	}
}

// BenchmarkFig18 — R vs R+PS+DS across datasets (Fig. 18).
func BenchmarkFig18(b *testing.B) {
	for _, name := range []string{"taxi", "tpcc", "ycsb"} {
		ds := benchDataset(b, name, benchRows)
		w := benchWorkload(b, ds, workload.Config{Updates: 30})
		for _, v := range []core.Variant{core.VariantR, core.VariantRFull} {
			b.Run(fmt.Sprintf("%s/%s", name, v), func(b *testing.B) { runVariant(b, w, v) })
		}
	}
}

// BenchmarkFig19 — dependent updates (Fig. 19): R+PS degrades as D
// grows; R+PS+DS is mitigated by data slicing.
func BenchmarkFig19(b *testing.B) {
	ds := benchDataset(b, "taxi", benchRows)
	for _, d := range []int{1, 50, 100} {
		w := benchWorkload(b, ds, workload.Config{Updates: 40, DependentPct: d})
		for _, v := range []core.Variant{core.VariantRPS, core.VariantRFull} {
			b.Run(fmt.Sprintf("D%d/%s", d, v), func(b *testing.B) { runVariant(b, w, v) })
		}
	}
}

// BenchmarkFig20 — affected data (Fig. 20): R+PS flat in T, R+DS grows
// with T.
func BenchmarkFig20(b *testing.B) {
	ds := benchDataset(b, "taxi", benchRows)
	for _, t := range []float64{3, 38, 80} {
		w := benchWorkload(b, ds, workload.Config{Updates: 40, DependentPct: 1, AffectedPct: t})
		for _, v := range []core.Variant{core.VariantRPS, core.VariantRDS, core.VariantRFull} {
			b.Run(fmt.Sprintf("T%.0f/%s", t, v), func(b *testing.B) { runVariant(b, w, v) })
		}
	}
}

// benchDatasetsAtT covers Figs. 21–23: variants across datasets at one
// affected-data setting.
func benchDatasetsAtT(b *testing.B, t float64) {
	for _, name := range []string{"taxi", "tpcc", "ycsb"} {
		ds := benchDataset(b, name, benchRows)
		w := benchWorkload(b, ds, workload.Config{Updates: 30, AffectedPct: t})
		for _, v := range []core.Variant{core.VariantRPS, core.VariantRDS, core.VariantRFull} {
			b.Run(fmt.Sprintf("%s/%s", name, v), func(b *testing.B) { runVariant(b, w, v) })
		}
	}
}

// BenchmarkFig21 — datasets at T0 (Fig. 21): R+DS competitive with the
// combined variant at tiny selectivity.
func BenchmarkFig21(b *testing.B) { benchDatasetsAtT(b, 0.5) }

// BenchmarkFig22 — datasets at T10 (Fig. 22): combined wins.
func BenchmarkFig22(b *testing.B) { benchDatasetsAtT(b, 10) }

// BenchmarkFig23 — datasets at T25 (Fig. 23): combined wins.
func BenchmarkFig23(b *testing.B) { benchDatasetsAtT(b, 25) }

// BenchmarkFig24 — insert-heavy workloads (Fig. 24): cheaper than the
// update-only counterparts of Fig. 22.
func BenchmarkFig24(b *testing.B) {
	ds := benchDataset(b, "taxi", benchRows)
	w := benchWorkload(b, ds, workload.Config{Updates: 30, InsertPct: 10})
	for _, v := range []core.Variant{core.VariantRPS, core.VariantRDS, core.VariantRFull} {
		b.Run(string(v), func(b *testing.B) { runVariant(b, w, v) })
	}
}

// BenchmarkFig25 — mixed workloads (Fig. 25).
func BenchmarkFig25(b *testing.B) {
	ds := benchDataset(b, "taxi", benchRows)
	w := benchWorkload(b, ds, workload.Config{Updates: 30, InsertPct: 10, DeletePct: 10})
	for _, v := range []core.Variant{core.VariantRPS, core.VariantRDS, core.VariantRFull} {
		b.Run(string(v), func(b *testing.B) { runVariant(b, w, v) })
	}
}
