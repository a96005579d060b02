package core

import (
	"testing"

	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// BenchmarkTemplateEval answers one binding of the template_sweep shape
// through a session: 8 000 Taxi rows, 100 statements, the modified
// UPDATE's threshold as $cut. The historical condition selects ≈ 10 %
// of the rows, so narrow (cut 9500) slices to ≈ 10 %, half (6000) to
// ≈ 40 % a side, and wide (0) to every row, where the unsliced plan
// runs.
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
	tpl, err := s.CompileTemplate(paramMods(w), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cut  int64
	}{{"narrow", 9500}, {"half", 6000}, {"wide", 0}} {
		b.Run(c.name, func(b *testing.B) {
			binding := map[string]types.Value{"cut": types.Int(c.cut)}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := tpl.Eval(binding); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
