package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/workload"
)

// execOut is the output path of the exec experiment (flag -execout).
var execOut = "BENCH_exec.json"

// execResult is one cell of the executor sweep, with the allocation
// profile testing.B collects (allocs/op is the early-warning signal
// for executor regressions — time alone hides allocator luck).
type execResult struct {
	Updates  int    `json:"updates"`
	Rows     int    `json:"rows"`
	Executor string `json:"executor"`
	// Columnar is reported for the vectorized cells: true for the typed
	// column-vector lanes, false for the boxed-Value ablation
	// (Vec.NoColumnar) that preserves the pre-typed-lane numbers.
	Columnar    *bool   `json:"columnar,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Speedup     float64 `json:"speedup_vs_interpreter,omitempty"`
	// SpeedupVsCompiled is reported for the vectorized executor: its
	// gain over the tuple-at-a-time compiled path (the PR-over-PR
	// trajectory metric).
	SpeedupVsCompiled float64 `json:"speedup_vs_compiled,omitempty"`
	// SpeedupVsBoxed is reported for the typed-lane vectorized cell:
	// its gain over the boxed-Value vectorized ablation (the isolated
	// contribution of the typed column vectors).
	SpeedupVsBoxed float64 `json:"speedup_vs_boxed,omitempty"`
}

// execReport is the BENCH_exec.json document: the perf trajectory
// baseline for the executors.
type execReport struct {
	Description string       `json:"description"`
	Rows        int          `json:"rows_flag"`
	Seed        int64        `json:"seed"`
	Updates     []int        `json:"updates"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	Results     []execResult `json:"results"`
}

// execExp sweeps history length × relation size × executor
// (interpreter vs compiled vs vectorized) over the whole-history
// reenactment path (variant R — the executor-bound configuration) and
// writes BENCH_exec.json.
func (h *harness) execExp() {
	sizes := []int{h.rows / 10, h.rows / 2, h.rows}
	updates := h.updates
	if h.quick {
		// Smoke scale: one small relation, two history lengths — enough
		// to exercise every executor cell (including the typed-lane and
		// boxed ablation vectorized paths) without benchmark-grade reps.
		sizes = []int{h.rows / 10}
		if len(updates) > 2 {
			updates = updates[:2]
		}
	}
	report := &execReport{
		Description: "WhatIf (variant R) reenactment: tree-walking interpreter vs compiled (tuple-at-a-time) vs vectorized executor (internal/exec; typed columnar lanes plus the boxed-Value columnar:false ablation)",
		Rows:        h.rows,
		Seed:        h.seed,
		Updates:     updates,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}

	// The four measured cells: the three executors, plus the vectorized
	// executor with the typed column lanes disabled (boxed-Value
	// batches) — the ablation isolating what the columnar
	// representation contributes over vectorization alone.
	type cellCfg struct {
		name       string
		ex         core.ExecutorKind
		noColumnar bool
	}
	cfgs := []cellCfg{
		{name: "interpreter", ex: core.ExecInterpreter},
		{name: "vectorized-boxed", ex: core.ExecVectorized, noColumnar: true},
		{name: "compiled", ex: core.ExecCompiled},
		{name: "vectorized", ex: core.ExecVectorized},
	}
	header("Exec: interpreter vs compiled vs vectorized (typed/boxed) — Taxi",
		"rows", "interp", "compiled", "vec-boxed", "vector", "vec/comp", "typed/boxed", "allocs-v")
	for _, rows := range sizes {
		ds := workload.Taxi(rows, h.seed)
		for _, u := range updates {
			w := h.gen(ds, workload.Config{Updates: u})
			vdb, err := w.Load()
			if err != nil {
				panic(err)
			}
			engine := core.New(vdb)

			cells := map[string]testing.BenchmarkResult{}
			for _, cfg := range cfgs {
				opts := core.OptionsFor(core.VariantR)
				opts.Executor = cfg.ex
				opts.Vec.NoColumnar = cfg.noColumnar
				// Warm once so page-in and snapshot construction do not
				// land inside the measurement.
				if _, _, err := engine.WhatIf(w.Mods, opts); err != nil {
					panic(err)
				}
				cells[cfg.name] = testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := engine.WhatIf(w.Mods, opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			interp := cells["interpreter"]
			compiled := cells["compiled"]
			boxed := cells["vectorized-boxed"]
			vec := cells["vectorized"]
			vecVsComp := float64(compiled.NsPerOp()) / float64(vec.NsPerOp())
			typedVsBoxed := float64(boxed.NsPerOp()) / float64(vec.NsPerOp())
			yes, no := true, false
			report.Results = append(report.Results,
				execResult{Updates: u, Rows: rows, Executor: "interpreter",
					NsPerOp: interp.NsPerOp(), AllocsPerOp: interp.AllocsPerOp(), BytesPerOp: interp.AllocedBytesPerOp()},
				execResult{Updates: u, Rows: rows, Executor: "compiled",
					NsPerOp: compiled.NsPerOp(), AllocsPerOp: compiled.AllocsPerOp(), BytesPerOp: compiled.AllocedBytesPerOp(),
					Speedup: float64(interp.NsPerOp()) / float64(compiled.NsPerOp())},
				execResult{Updates: u, Rows: rows, Executor: "vectorized", Columnar: &no,
					NsPerOp: boxed.NsPerOp(), AllocsPerOp: boxed.AllocsPerOp(), BytesPerOp: boxed.AllocedBytesPerOp(),
					Speedup:           float64(interp.NsPerOp()) / float64(boxed.NsPerOp()),
					SpeedupVsCompiled: float64(compiled.NsPerOp()) / float64(boxed.NsPerOp())},
				execResult{Updates: u, Rows: rows, Executor: "vectorized", Columnar: &yes,
					NsPerOp: vec.NsPerOp(), AllocsPerOp: vec.AllocsPerOp(), BytesPerOp: vec.AllocedBytesPerOp(),
					Speedup:           float64(interp.NsPerOp()) / float64(vec.NsPerOp()),
					SpeedupVsCompiled: vecVsComp,
					SpeedupVsBoxed:    typedVsBoxed},
			)
			fmt.Printf("%-10d %12d %12.1f %12.1f %12.1f %12.1f %11.2fx %12.2fx %12d\n",
				u, rows,
				float64(interp.NsPerOp())/1e6, float64(compiled.NsPerOp())/1e6,
				float64(boxed.NsPerOp())/1e6, float64(vec.NsPerOp())/1e6,
				vecVsComp, typedVsBoxed, vec.AllocsPerOp())
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(execOut, append(out, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %s\n", execOut)
}
