package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/howto"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// howtoOut is the output path of the howto experiment (flag -howtoout).
var howtoOut = "BENCH_howto.json"

// howtoResult is one cell of the how-to sweep.
type howtoResult struct {
	Shape   string `json:"shape"`
	Updates int    `json:"updates"`
	Rows    int    `json:"rows"`
	// Target restates the cell's condition over the SUM(payload) delta.
	TargetOp    string  `json:"target_op"`
	TargetValue float64 `json:"target_value"`
	// Method is the search path taken: "milp" (linear response) or
	// "grid" (bounded sweep + bisection).
	Method string `json:"method"`
	// Evals counts template evaluations the search spent.
	Evals int `json:"evals"`
	// Binding is the answer; Magnitude its Σ|x|; Delta the achieved
	// target-cell value.
	Binding   map[string]types.Value `json:"binding"`
	Magnitude float64                `json:"magnitude"`
	Delta     types.Value            `json:"delta"`
	// Certified reports the differential certificate: the claimed delta
	// was reproduced by a fresh what-if at the answer binding and the
	// target condition holds on it. Every row must say true.
	Certified bool `json:"certified"`
	// SearchMs is the median of timedRuns searches.
	SearchMs float64 `json:"search_ms"`
}

// howtoReport is the BENCH_howto.json document.
type howtoReport struct {
	Description string        `json:"description"`
	Rows        int           `json:"rows_flag"`
	Seed        int64         `json:"seed"`
	Results     []howtoResult `json:"results"`
}

// howtoExp sweeps how-to searches over the Taxi workload, one cell per
// (shape, history length):
//
//   - set-slot: the scenario writes payload + $v under the modified
//     update's concrete condition, so the SUM(payload) delta responds
//     linearly to $v and the search solves one MILP.
//   - cond-slot: the scenario's threshold is the slot (sel >= $cut), so
//     the delta is a data-dependent step function of $cut and the
//     search falls back to the grid+bisection path.
//
// Each cell's target is derived from a probe at the middle of the
// search box (so it is reachable by construction at every scale), and
// every answer must carry a passing differential certificate — the CI
// smoke run gates on certified:true.
func (h *harness) howtoExp() {
	rows := h.rows / 40
	if rows < 200 {
		rows = 200
	}
	type cell struct {
		shape   string
		updates int
	}
	cells := []cell{
		{"set-slot", 50}, {"set-slot", 100}, {"set-slot", 200},
		{"cond-slot", 50}, {"cond-slot", 100},
	}
	if h.quick {
		rows = 400
		cells = []cell{{"set-slot", 10}, {"cond-slot", 10}}
	}
	report := &howtoReport{
		Description: "How-to search: minimal-magnitude scenario parameters achieving a target SUM(payload) delta, MILP on linear responses and grid+bisection otherwise, every answer re-proven by a fresh what-if (certified)",
		Rows:        rows,
		Seed:        h.seed,
	}

	header(fmt.Sprintf("Howto: target search over Taxi rows=%d", rows),
		"U", "shape", "method", "evals", "magnitude", "certified", "search")
	ds := workload.Taxi(rows, h.seed)
	for _, c := range cells {
		w := h.gen(ds, workload.Config{Updates: c.updates, DependentPct: 25})
		vdb, err := w.Load()
		if err != nil {
			panic(err)
		}
		engine := core.New(vdb)

		base := w.Mods[0].(history.Replace)
		upd := base.Stmt.(*history.Update)
		payload := w.Dataset.Payload[0]
		var mods []history.Modification
		var param string
		var bounds howto.Range
		switch c.shape {
		case "set-slot":
			param, bounds = "v", howto.Range{Lo: 0, Hi: 100}
			mods = []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
				Rel: upd.Rel,
				Set: []history.SetClause{{
					Col: payload,
					E:   expr.Add(expr.Column(payload), expr.Parameter(param)),
				}},
				Where: upd.Where,
			}}}
		case "cond-slot":
			param, bounds = "cut", howto.Range{Lo: 0, Hi: workload.SelRange}
			mods = []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
				Rel:   upd.Rel,
				Set:   upd.Set,
				Where: expr.Ge(expr.Column(w.Dataset.SelAttr), expr.Parameter(param)),
			}}}
		}

		// Derive a reachable target: probe the delta at the middle of
		// the search box and aim the condition there.
		src := fmt.Sprintf("SELECT SUM(%s) AS s FROM %s", payload, upd.Rel)
		q, err := sql.ParseQuery(src)
		if err != nil {
			panic(err)
		}
		aq, err := core.NewAggregateQuery(src, q)
		if err != nil {
			panic(err)
		}
		tpl, err := engine.CompileTemplate(mods, core.DefaultOptions())
		if err != nil {
			panic(err)
		}
		mid := (bounds.Lo + bounds.Hi) / 2
		_, probe, err := tpl.EvalAggregates(
			map[string]types.Value{param: types.Float(mid)}, []core.AggregateQuery{aq})
		if err != nil {
			panic(err)
		}
		fmid := probe[0].Rows[0].Delta[0].AsFloat()

		// Each run searches afresh; the report keeps the last run's
		// answer, and every run's must be certified.
		var res *howto.Result
		searchTs := make([]time.Duration, timedRuns)
		for run := range timedRuns {
			start := time.Now()
			res, err = howto.Search(context.Background(), engine, mods, howto.Target{
				Query:  src,
				Column: "s",
				Op:     "==",
				Value:  fmid,
			}, howto.Options{Bounds: map[string]howto.Range{param: bounds}})
			if err != nil {
				panic(fmt.Sprintf("%s U=%d: %v", c.shape, c.updates, err))
			}
			searchTs[run] = time.Since(start)
			if !res.Certificate.Certified {
				panic(fmt.Sprintf("%s U=%d: answer failed certification: %+v",
					c.shape, c.updates, res.Certificate))
			}
		}
		searchT := median(searchTs)

		report.Results = append(report.Results, howtoResult{
			Shape: c.shape, Updates: c.updates, Rows: rows,
			TargetOp: "==", TargetValue: fmid,
			Method: res.Method, Evals: res.Evals,
			Binding: res.Binding, Magnitude: res.Magnitude, Delta: res.Delta,
			Certified: res.Certificate.Certified,
			SearchMs:  float64(searchT.Microseconds()) / 1000,
		})
		fmt.Printf("%-10d %12s %12s %12d %12.2f %11t %12s\n",
			c.updates, c.shape, res.Method, res.Evals, res.Magnitude,
			res.Certificate.Certified, ms(searchT))
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(howtoOut, append(out, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %s\n", howtoOut)
}
