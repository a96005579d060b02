package core

import (
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// BenchmarkTemplateEval answers one binding of each template_sweep
// shape through a session: 8 000 Taxi rows, 100 statements. The
// cond-slot shape makes the modified UPDATE's threshold $cut (9000 in
// the history), a range template: a binding above 9000 is on the FALSE
// end's side, whose keep set is what the constant what-if keeps, and a
// binding below it on the IS NOT NULL end's side, which keeps every
// statement here. Its suffix holds no INSERT … SELECT, so the template
// is provisioned: each side's band table, built by its first binding,
// answers narrow (cut 9500), below (8500), half (6000) and wide (0)
// without running a program. The set-slot shape keeps the condition and
// writes SET tips = tips + $bump, so it slices like a constant scenario
// and runs its executed plan. Each shape's /report sub-benchmark
// attaches the template_sweep gate's GROUP BY company report. Each
// sub-benchmark reports the statements its binding's plan keeps
// (kept-stmts of total-stmts).
func BenchmarkTemplateEval(b *testing.B) {
	w, err := workload.Generate(workload.Taxi(8000, 1), workload.Config{
		Updates: 100, Mods: 1, DependentPct: 10, AffectedPct: 10, Seed: 20220612,
	})
	if err != nil {
		b.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		b.Fatal(err)
	}
	s := New(vdb).NewSession()
	report := []AggregateQuery{mustAggQuery(b, "SELECT company, SUM(tips) AS tips, COUNT(*) AS n FROM trips GROUP BY company")}
	run := func(b *testing.B, tpl *Template, binding map[string]types.Value, queries []AggregateQuery) {
		st := tpl.Stats()
		kept := st.KeptStatements
		if slot := tpl.art.Load().slot; slot != nil {
			if side, ok := slot.side(binding); ok {
				kept = st.Sides[side].Kept
			}
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := tpl.EvalAggregates(binding, queries); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(kept), "kept-stmts")
		b.ReportMetric(float64(st.TotalStatements), "total-stmts")
	}
	cond, err := s.CompileTemplate(paramMods(w), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cut  int64
	}{{"narrow", 9500}, {"below", 8500}, {"half", 6000}, {"wide", 0}} {
		binding := map[string]types.Value{"cut": types.Int(c.cut)}
		b.Run(c.name, func(b *testing.B) { run(b, cond, binding, nil) })
		b.Run(c.name+"/report", func(b *testing.B) { run(b, cond, binding, report) })
	}
	set, err := s.CompileTemplate(setSlotMods(w), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	bump := map[string]types.Value{"bump": types.Float(2.25)}
	b.Run("set-slot", func(b *testing.B) { run(b, set, bump, nil) })
	b.Run("set-slot/report", func(b *testing.B) { run(b, set, bump, report) })
}

// setSlotMods rebuilds the workload's modification with its condition
// kept and SET tips = tips + $bump written instead.
func setSlotMods(w *workload.Workload) []history.Modification {
	base := w.Mods[0].(history.Replace)
	orig := w.History[base.Pos].(*history.Update)
	return []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
		Rel:   orig.Rel,
		Set:   []history.SetClause{{Col: "tips", E: expr.Add(expr.Column("tips"), expr.Parameter("bump"))}},
		Where: orig.Where,
	}}}
}

// BenchmarkTemplateAfterAppend is serve_mixed's template tail: each op
// appends one independent statement and then evaluates the cond-slot
// template under a narrow binding, so every op recompiles the artifact
// against the history the append left (9 000 Taxi rows, 50 statements
// at the start, one more per op). What a recompile costs beyond the
// append is what the op measures.
func BenchmarkTemplateAfterAppend(b *testing.B) {
	w, e := servingWorkload(b, 9000, 50)
	tpl, err := e.NewSession().CompileTemplate(paramMods(w), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	binding := map[string]types.Value{"cut": types.Int(9500)}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := e.Append(appendedStmt(w, int64(i*37%(workload.SelRange-5)))); err != nil {
			b.Fatal(err)
		}
		if _, err := tpl.Eval(binding); err != nil {
			b.Fatal(err)
		}
		i++
	}
	if r := tpl.Stats().Recompiles; r != int64(i) {
		b.Fatalf("%d recompiles over %d ops", r, i)
	}
}

// servingWorkload is the template_sweep and serve_mixed history shape
// at test size: Taxi rows, one modified statement and 10 % dependent
// ones, all selecting trip_seconds ≥ 9000.
func servingWorkload(tb testing.TB, rows, updates int) (*workload.Workload, *Engine) {
	tb.Helper()
	w, err := workload.Generate(workload.Taxi(rows, 1), workload.Config{
		Updates: updates, Mods: 1, DependentPct: 10, AffectedPct: 10, Seed: 20220612,
	})
	if err != nil {
		tb.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		tb.Fatal(err)
	}
	return w, New(vdb)
}

// appendedStmt is serve_mixed's appended statement: a five-wide
// trip_miles band from lo, below every modified threshold, so it is
// independent of every what-if and template the workload asks.
func appendedStmt(w *workload.Workload, lo int64) history.Statement {
	sel, sel2 := expr.Column(w.Dataset.SelAttr), expr.Column(w.Dataset.SelAttr2)
	return &history.Update{
		Rel: w.Dataset.Rel.Schema.Relation,
		Set: []history.SetClause{{Col: "extras", E: expr.Add(expr.Column("extras"), expr.FloatConst(1))}},
		Where: expr.AndOf(
			expr.Lt(sel, expr.IntConst(9000)),
			expr.Ge(sel2, expr.IntConst(lo)),
			expr.Lt(sel2, expr.IntConst(lo+5)),
		),
	}
}
