package core

import (
	"testing"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/workload"
)

// TestWhatIfPairRoutesCounted: a what-if's relations take the pair
// scan or fall back by a counted reason — update-only histories pair,
// inserts fall back by shape, and a DELETE whose rows differ between
// the two sides by misalignment — and every route answers what the
// interpreter answers, with the same delta work. The counts are the
// session's and reach SessionStats.Pairs.
func TestWhatIfPairRoutesCounted(t *testing.T) {
	generated := func(cfg workload.Config) func(t *testing.T) (*Engine, []history.Modification) {
		return func(t *testing.T) (*Engine, []history.Modification) {
			w, err := workload.Generate(workload.Taxi(3000, 1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			vdb, err := w.Load()
			if err != nil {
				t.Fatal(err)
			}
			return New(vdb), w.Mods
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) (*Engine, []history.Modification)
		want  func(PairRoutes) bool
	}{
		{"update-only", generated(workload.Config{Updates: 20, Mods: 1, DependentPct: 20, AffectedPct: 10, Seed: 3}),
			func(p PairRoutes) bool { return p.Paired == 1 }},
		{"inserts", generated(workload.Config{Updates: 20, Mods: 1, DependentPct: 20, AffectedPct: 10, InsertPct: 20, Seed: 3}),
			func(p PairRoutes) bool { return p.Shape == 1 }},
		// The modified update lifts order 2 past the DELETE's bound on
		// the modified side only.
		{"a delete of different rows", func(t *testing.T) (*Engine, []history.Modification) {
			return ordersEngine(t), []history.Modification{history.Replace{Pos: 1,
				Stmt: mustStmt(t, "UPDATE orders SET amount = amount + 20 WHERE region = 'east'")}}
		}, func(p PairRoutes) bool { return p.Misaligned == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine, mods := tc.setup(t)
			for _, v := range []Variant{VariantR, VariantRPS, VariantRDS, VariantRFull} {
				optsI := OptionsFor(v)
				optsI.Executor = ExecInterpreter
				want, stI, err := engine.WhatIf(mods, optsI)
				if err != nil {
					t.Fatal(err)
				}
				sess := engine.NewSession()
				got, st, err := sess.WhatIf(mods, OptionsFor(v))
				if err != nil {
					t.Fatal(err)
				}
				for rel, d := range want {
					if !got[rel].Equal(d) || got[rel].String() != d.String() {
						t.Fatalf("%s: the vectorized delta of %s differs from the interpreter's", v, rel)
					}
				}
				if st.RowsCompared != stI.RowsCompared || st.RowsHashed != stI.RowsHashed || st.RowsBoxed != stI.RowsBoxed {
					t.Fatalf("%s: delta work %d/%d/%d, the interpreter's %d/%d/%d", v,
						st.RowsCompared, st.RowsHashed, st.RowsBoxed, stI.RowsCompared, stI.RowsHashed, stI.RowsBoxed)
				}
				if p := sess.Stats().Pairs; !tc.want(p) || p.Paired+p.Shape+p.Misaligned != int64(len(got)) {
					t.Fatalf("%s: pair routes %+v for %d relations", v, p, len(got))
				}
			}
		})
	}
}
