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
// cond-slot shape makes the modified UPDATE's threshold $cut. Its
// historical condition selects ≈ 10 % of the rows, so narrow (cut 9500)
// slices to ≈ 10 %, half (6000) to ≈ 40 % a side, and wide (0) to every
// row, where the unsliced plan runs. The set-slot shape keeps the
// condition and writes SET tips = tips + $bump, so it slices like a
// constant scenario and has one plan.
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
	run := func(b *testing.B, tpl *Template, binding map[string]types.Value) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := tpl.Eval(binding); err != nil {
				b.Fatal(err)
			}
		}
	}
	cond, err := s.CompileTemplate(paramMods(w), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cut  int64
	}{{"narrow", 9500}, {"half", 6000}, {"wide", 0}} {
		b.Run(c.name, func(b *testing.B) {
			run(b, cond, map[string]types.Value{"cut": types.Int(c.cut)})
		})
	}
	set, err := s.CompileTemplate(setSlotMods(w), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("set-slot", func(b *testing.B) {
		run(b, set, map[string]types.Value{"bump": types.Float(2.25)})
	})
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
