package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// templateOut is the output path of the template experiment (flag
// -templateout).
var templateOut = "BENCH_template.json"

// templateResult is one cell of the template sweep. Each (shape,
// updates) pair appears twice: templates:true for the compiled-template
// path (one CompileTemplate + a binding sweep over EvalBatch) and
// templates:false for the ablation answering the same bindings as
// independent scenarios through WhatIfBatch. Bindings is the count the
// row actually answered — the ablation measures a stride sample of the
// sweep (answering all 10k through per-scenario compile+solve would
// take the better part of an hour), so the rows compare on
// ns_per_binding, not total. Every time is the median of timedRuns runs
// of the row's timed section.
type templateResult struct {
	Shape    string `json:"shape"`
	Updates  int    `json:"updates"`
	Rows     int    `json:"rows"`
	Bindings int    `json:"bindings"`
	// Templates distinguishes the template path from the WhatIfBatch
	// ablation over the same bindings.
	Templates bool `json:"templates"`
	// CompileMs is the one-time template compilation the sweep
	// amortizes (template rows only; included in TotalMs).
	CompileMs float64 `json:"compile_ms,omitempty"`
	TotalMs   float64 `json:"total_ms"`
	// NsPerBinding is TotalMs spread over the row's bindings — the
	// steady-state cost of one more what-if answer (compile included
	// and amortized for the template rows).
	NsPerBinding int64 `json:"ns_per_binding"`
	// Slicing outcome of the template artifact (template rows only).
	// DataSlicing reports that the artifact compiled its slicing filters
	// in; ProvisionedEvals counts the bindings a band table answered. A
	// cond-slot cell is a range template, so a band table answers every
	// binding; a set-slot cell runs its executed plan for each.
	TotalStatements    int   `json:"total_statements,omitempty"`
	KeptStatements     int   `json:"kept_statements,omitempty"`
	BindingIndependent int   `json:"binding_independent,omitempty"`
	BindingDependent   int   `json:"binding_dependent,omitempty"`
	DataSlicing        bool  `json:"data_slicing,omitempty"`
	ProvisionedEvals   int64 `json:"provisioned_evals,omitempty"`
	// Sides reports a range template's two sides (the cond-slot cells):
	// the statements each side keeps, which its band table reenacts, and
	// the bindings on it; kept_statements above is the larger side's.
	Sides []templateSide `json:"sides,omitempty"`
	// SpeedupVsBatch is the template row's per-binding gain over its
	// ablation twin (batch ns_per_binding / template ns_per_binding).
	SpeedupVsBatch float64 `json:"speedup_vs_batch,omitempty"`
	// IdenticalResults reports the per-binding differential check: every
	// template delta equals the WhatIfBatch delta for the same binding.
	IdenticalResults *bool `json:"identical_results,omitempty"`
}

// templateSide is one side of a range template's bound.
type templateSide struct {
	Bound          types.Value `json:"bound"`
	Direction      string      `json:"direction"`
	KeptStatements int         `json:"kept_statements"`
	Evals          int64       `json:"evals"`
}

// templateReport is the BENCH_template.json document.
type templateReport struct {
	Description string           `json:"description"`
	Rows        int              `json:"rows_flag"`
	Seed        int64            `json:"seed"`
	Bindings    int              `json:"bindings"`
	Workers     int              `json:"workers"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	Results     []templateResult `json:"results"`
}

// templateExp sweeps a 10k-binding parameter sweep through a compiled
// scenario template and through the equivalent WhatIfBatch (one
// scenario per binding, full compile+solve each), over two template
// shapes:
//
//   - cond-slot: the modified update's threshold is the slot
//     (UPDATE ... WHERE sel >= $cut), a range template: it is sliced
//     once at each end of the slot's range, and a binding above the
//     original threshold keeps what the constant what-if keeps, one
//     below it every statement the IS NOT NULL end reaches. The win is
//     the amortized per-binding compile+solve, and, the template being
//     provisioned, each binding is answered from its side's band table
//     without running a program.
//   - set-slot: the written value is the slot (SET payload = payload +
//     $v) under a concrete condition, so the template slices like a
//     constant scenario and the sweep also skips the re-evaluation of
//     sliced-away statements.
//
// The relation is kept small (rows_flag/40) on purpose: the template's
// per-binding cost is evaluation over the relation, the batch's is
// compile+solve over the history, so this is the regime the subsystem
// exists for — many bindings against a long history. The ablation
// answers a stride sample of the sweep (the full 10k through
// per-scenario compile+solve would run ~an hour); every sampled binding
// is checked differentially against its template twin and the report
// records identical_results per template cell. The sweep runs in chunks
// of templateChunk bindings and keeps only the sampled deltas: a wide
// binding's delta is ≈ 1 MB, so all 10k held at once would need ≈ 10 GB.
func (h *harness) templateExp() {
	bindings := 10000
	sample := 300
	rows := h.rows / 40
	if rows < 200 {
		rows = 200
	}
	type cell struct {
		shape   string
		updates int
	}
	cells := []cell{
		{"cond-slot", 50}, {"cond-slot", 100}, {"cond-slot", 200},
		{"set-slot", 100},
	}
	if h.quick {
		// Smoke scale: enough bindings to exercise the worker pool and
		// the differential check, without benchmark-grade sweeps.
		bindings, sample, rows = 40, 10, 400
		cells = []cell{{"cond-slot", 10}, {"set-slot", 10}}
	}
	workers := runtime.GOMAXPROCS(0)
	report := &templateReport{
		Description: "Scenario templates: CompileTemplate once + a binding sweep over EvalBatch vs the equivalent WhatIfBatch (one scenario per binding, per-scenario compile+solve, measured over a stride sample of the sweep), with a per-binding differential check over the sample",
		Rows:        rows,
		Seed:        h.seed,
		Bindings:    bindings,
		Workers:     workers,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}

	type shapeCfg struct {
		param string
		mods  func(w *workload.Workload) []history.Modification
	}
	shapes := map[string]shapeCfg{
		"cond-slot": {
			param: "cut",
			mods: func(w *workload.Workload) []history.Modification {
				base := w.Mods[0].(history.Replace)
				upd := base.Stmt.(*history.Update)
				return []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
					Rel:   upd.Rel,
					Set:   upd.Set,
					Where: expr.Ge(expr.Column(w.Dataset.SelAttr), expr.Parameter("cut")),
				}}}
			},
		},
		"set-slot": {
			param: "v",
			mods: func(w *workload.Workload) []history.Modification {
				base := w.Mods[0].(history.Replace)
				upd := base.Stmt.(*history.Update)
				payload := w.Dataset.Payload[0]
				return []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
					Rel: upd.Rel,
					Set: []history.SetClause{{
						Col: payload,
						E:   expr.Add(expr.Column(payload), expr.Parameter("v")),
					}},
					Where: upd.Where,
				}}}
			},
		},
	}

	header(fmt.Sprintf("Template: %d-binding sweep vs WhatIfBatch (sample=%d) — Taxi rows=%d (workers=%d)",
		bindings, sample, rows, workers),
		"U", "shape", "compile", "tpl/b", "batch/b", "speedup", "identical")
	ds := workload.Taxi(rows, h.seed)
	for _, c := range cells {
		shape := shapes[c.shape]
		u := c.updates
		w := h.gen(ds, workload.Config{Updates: u, DependentPct: 25})
		vdb, err := w.Load()
		if err != nil {
			panic(err)
		}
		engine := core.New(vdb)
		mods := shape.mods(w)

		// Bindings sweep the full selection range so the parameter
		// region (and the affected tuple count) varies per binding.
		bvals := make([]map[string]types.Value, bindings)
		for i := range bvals {
			v := float64(i%(2*workload.SelRange)) + 0.5
			bvals[i] = map[string]types.Value{shape.param: types.Float(v)}
		}

		stride := bindings / sample
		if stride < 1 {
			stride = 1
		}
		// Each run compiles a fresh template and sweeps it; the report
		// keeps the last run's template and samples. A run drops the
		// previous run's samples first, so two runs' deltas are never
		// live at once.
		var tpl *core.Template
		var sampled map[int]delta.Set
		compileTs := make([]time.Duration, timedRuns)
		templateTs := make([]time.Duration, timedRuns)
		for run := range timedRuns {
			tpl, sampled = nil, nil
			start := time.Now()
			tpl, err = engine.CompileTemplate(mods, core.DefaultOptions())
			if err != nil {
				panic(err)
			}
			compileTs[run] = time.Since(start)
			sampled = map[int]delta.Set{}
			for lo := 0; lo < bindings; lo += templateChunk {
				results, err := tpl.EvalBatch(bvals[lo:min(lo+templateChunk, bindings)], workers)
				if err != nil {
					panic(err)
				}
				for k, r := range results {
					if r.Err != nil {
						panic(r.Err)
					}
					if (lo+k)%stride == 0 {
						sampled[lo+k] = r.Delta
					}
				}
			}
			templateTs[run] = time.Since(start)
		}
		compileT, templateT := median(compileTs), median(templateTs)

		// The ablation: every sample-th binding as its own scenario
		// through WhatIfBatch. Sharing (snapshot, memo) stays on — this
		// is the strongest constant-scenario baseline — but each distinct
		// constant still pays compile+solve.
		var picked []int
		for i := 0; i < bindings; i += stride {
			picked = append(picked, i)
		}
		scenarios := make([]core.Scenario, len(picked))
		for j, i := range picked {
			scenarios[j] = core.Scenario{
				Label: fmt.Sprintf("b%d", i),
				Mods:  tpl.SubstitutedMods(bvals[i]),
			}
		}
		var batchResults []core.BatchResult
		batchTs := make([]time.Duration, timedRuns)
		for run := range timedRuns {
			batchResults = nil
			var bs *core.BatchStats
			batchResults, bs, err = engine.WhatIfBatch(scenarios, core.BatchOptions{
				Options: core.DefaultOptions(), Workers: workers,
			})
			if err != nil {
				panic(err)
			}
			batchTs[run] = bs.Total
		}
		batchT := median(batchTs)

		identical := true
		for j, br := range batchResults {
			if br.Err != nil {
				panic(br.Err)
			}
			if !deltasEqual(sampled[picked[j]], br.Delta) {
				identical = false
				fmt.Printf("  DIFF at binding %d (%s)\n", picked[j], c.shape)
			}
		}

		st := tpl.Stats()
		var sides []templateSide
		for _, sd := range st.Sides {
			sides = append(sides, templateSide{Bound: sd.Bound, Direction: sd.Direction, KeptStatements: sd.Kept, Evals: sd.Evals})
		}
		tplPerB := templateT.Nanoseconds() / int64(bindings)
		batchPerB := batchT.Nanoseconds() / int64(len(picked))
		speedup := float64(batchPerB) / float64(tplPerB)
		id := identical
		report.Results = append(report.Results,
			templateResult{
				Shape: c.shape, Updates: u, Rows: rows, Bindings: bindings,
				Templates:          true,
				CompileMs:          float64(compileT.Microseconds()) / 1000,
				TotalMs:            float64(templateT.Microseconds()) / 1000,
				NsPerBinding:       tplPerB,
				TotalStatements:    st.TotalStatements,
				KeptStatements:     st.KeptStatements,
				BindingIndependent: st.BindingIndependent,
				BindingDependent:   st.BindingDependent,
				DataSlicing:        st.DataSlicing,
				ProvisionedEvals:   st.ProvisionedEvals,
				Sides:              sides,
				SpeedupVsBatch:     speedup,
				IdenticalResults:   &id,
			},
			templateResult{
				Shape: c.shape, Updates: u, Rows: rows, Bindings: len(picked),
				Templates:    false,
				TotalMs:      float64(batchT.Microseconds()) / 1000,
				NsPerBinding: batchPerB,
			},
		)
		fmt.Printf("%-10d %12s %12s %12.2f %12.2f %11.2fx %12t\n",
			u, c.shape, ms(compileT), float64(tplPerB)/1e6, float64(batchPerB)/1e6,
			speedup, identical)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(templateOut, append(out, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %s\n", templateOut)
}

// templateChunk is how many bindings one EvalBatch call of the template
// sweep answers.
const templateChunk = 500

// deltasEqual compares two delta sets relation by relation, treating a
// missing relation and an empty one as equal.
func deltasEqual(a, b delta.Set) bool {
	for rel, ra := range a {
		rb, ok := b[rel]
		if !ok {
			if !ra.Empty() {
				return false
			}
			continue
		}
		if !ra.Equal(rb) {
			return false
		}
	}
	for rel, rb := range b {
		if _, ok := a[rel]; !ok && !rb.Empty() {
			return false
		}
	}
	return true
}
