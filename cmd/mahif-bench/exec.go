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
	Updates     int     `json:"updates"`
	Rows        int     `json:"rows"`
	Executor    string  `json:"executor"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Speedup     float64 `json:"speedup_vs_interpreter,omitempty"`
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
// (interpreter vs vectorized) over the whole-history reenactment path
// (variant R — the executor-bound configuration) and writes
// BENCH_exec.json.
func (h *harness) execExp() {
	sizes := []int{h.rows / 10, h.rows / 2, h.rows}
	updates := h.updates
	if h.quick {
		// Smoke scale: one small relation, two history lengths — enough
		// to exercise both executor cells without benchmark-grade reps.
		sizes = []int{h.rows / 10}
		if len(updates) > 2 {
			updates = updates[:2]
		}
	}
	report := &execReport{
		Description: "WhatIf (variant R) reenactment: tree-walking interpreter vs vectorized executor (internal/exec)",
		Rows:        h.rows,
		Seed:        h.seed,
		Updates:     updates,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}

	header("Exec: interpreter vs vectorized — Taxi",
		"rows", "interp", "vector", "speedup", "allocs-i", "allocs-v")
	for _, rows := range sizes {
		ds := workload.Taxi(rows, h.seed)
		for _, u := range updates {
			w := h.gen(ds, workload.Config{Updates: u})
			vdb, err := w.Load()
			if err != nil {
				panic(err)
			}
			engine := core.New(vdb)

			cells := map[core.ExecutorKind]testing.BenchmarkResult{}
			for _, ex := range []core.ExecutorKind{core.ExecInterpreter, core.ExecVectorized} {
				opts := core.OptionsFor(core.VariantR)
				opts.Executor = ex
				// Warm once so page-in and snapshot construction do not
				// land inside the measurement.
				if _, _, err := engine.WhatIf(w.Mods, opts); err != nil {
					panic(err)
				}
				cells[ex] = testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := engine.WhatIf(w.Mods, opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			interp, vec := cells[core.ExecInterpreter], cells[core.ExecVectorized]
			speedup := float64(interp.NsPerOp()) / float64(vec.NsPerOp())
			report.Results = append(report.Results,
				execResult{Updates: u, Rows: rows, Executor: string(core.ExecInterpreter),
					NsPerOp: interp.NsPerOp(), AllocsPerOp: interp.AllocsPerOp(), BytesPerOp: interp.AllocedBytesPerOp()},
				execResult{Updates: u, Rows: rows, Executor: string(core.ExecVectorized),
					NsPerOp: vec.NsPerOp(), AllocsPerOp: vec.AllocsPerOp(), BytesPerOp: vec.AllocedBytesPerOp(),
					Speedup: speedup},
			)
			fmt.Printf("%-10d %12d %12.1f %12.1f %11.2fx %12d %12d\n",
				u, rows,
				float64(interp.NsPerOp())/1e6, float64(vec.NsPerOp())/1e6,
				speedup, interp.AllocsPerOp(), vec.AllocsPerOp())
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
