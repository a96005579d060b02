package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/workload"
)

// batch sweeps the batch what-if engine: a family of related scenarios
// answered (a) by the pre-batch sequential per-scenario WhatIf loop,
// (b) by WhatIfBatch with one worker (sharing only), and (c) by
// WhatIfBatch over growing worker pools (sharing + parallelism). One
// row per scenario count.
func (h *harness) batch() {
	ds := h.dataset(dsTaxiS)
	w := h.gen(ds, workload.Config{Updates: 50})
	vdb, err := w.Load()
	if err != nil {
		panic(err)
	}
	engine := core.New(vdb)
	opts := core.DefaultOptions()

	// Warm up (JIT-free, but page-in data and stabilize the allocator).
	if _, _, err := engine.WhatIf(w.Mods, opts); err != nil {
		panic(err)
	}

	workerGrid := []int{1, 2, 4}
	maxProcs := runtime.GOMAXPROCS(0)
	if maxProcs > 4 {
		workerGrid = append(workerGrid, maxProcs)
	}
	cols := []string{"seq-loop"}
	for _, wk := range workerGrid {
		cols = append(cols, fmt.Sprintf("batch-w%d", wk))
	}
	fmt.Printf("\n== Batch sweep: scenarios × workers — %s (U=50) ==\n", dsTaxiS)
	fmt.Printf("%-10s", "K")
	for _, c := range cols {
		fmt.Printf(" %12s", c)
	}
	fmt.Println(" (ms)")

	for _, k := range []int{4, 16, 64} {
		specs := w.ScenarioFamily(k)
		scenarios := make([]core.Scenario, len(specs))
		for i, s := range specs {
			scenarios[i] = core.Scenario{Label: s.Label, Mods: s.Mods}
		}

		fmt.Printf("%-10d", k)
		start := time.Now()
		for _, sc := range scenarios {
			if _, _, err := engine.WhatIf(sc.Mods, opts); err != nil {
				panic(err)
			}
		}
		fmt.Printf(" %12s", ms(time.Since(start)))

		for _, wk := range workerGrid {
			results, bs, err := engine.WhatIfBatch(scenarios, core.BatchOptions{Options: opts, Workers: wk})
			if err != nil {
				panic(err)
			}
			for _, r := range results {
				if r.Err != nil {
					panic(r.Err)
				}
			}
			fmt.Printf(" %12s", ms(bs.Total))
		}
		fmt.Println()
	}
}
