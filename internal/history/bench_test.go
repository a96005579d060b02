package history_test

import (
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/workload"
)

// BenchmarkApplyHistory measures statement application on the gate's
// scan_heavy shape: a 50-update Taxi history (10 % dependent, the
// bench's shape seed) over 32 000 rows. tip loads the history into a
// fresh VersionedDatabase through Apply — the live tip's indexed path
// over one maintained IndexSet; replay rebuilds the version before the
// last statement by time travel — a clone of the base and a
// replay-private IndexSet; naive runs History.Apply over a clone of
// the base, the execute step of the naive algorithm, which binds no
// index; opaque is tip over the same history with an always-true first
// conjunct no index can answer on every UPDATE; eq is tip over the same
// history with each UPDATE's WHERE an equality on pickup_area (77
// values), which probes the ordered index for one key.
func BenchmarkApplyHistory(b *testing.B) {
	w, err := workload.Generate(workload.Taxi(32000, 1), workload.Config{
		Updates: 50, Mods: 1, DependentPct: 10, AffectedPct: 10, Seed: 20220612,
	})
	if err != nil {
		b.Fatal(err)
	}
	base := w.Dataset.Database()
	tip := func(h history.History) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vdb := storage.NewVersioned(base)
				b.StartTimer()
				for _, st := range h {
					if err := vdb.Apply(st); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("tip", tip(w.History))
	vdb := storage.NewVersioned(base)
	for _, st := range w.History {
		if err := vdb.Apply(st); err != nil {
			b.Fatal(err)
		}
	}
	last := vdb.NumVersions() - 1
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vdb.Version(last); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := base.Clone()
			b.StartTimer()
			if err := w.History.Apply(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	opaque := make(history.History, len(w.History))
	for i, st := range w.History {
		opaque[i] = st
		if u, ok := st.(*history.Update); ok {
			always := expr.Eq(expr.Add(expr.IntConst(1), expr.IntConst(0)), expr.IntConst(1))
			opaque[i] = &history.Update{Rel: u.Rel, Set: u.Set, Where: expr.AndOf(always, u.Where)}
		}
	}
	b.Run("opaque", tip(opaque))
	eq := make(history.History, len(w.History))
	for i, st := range w.History {
		eq[i] = st
		if u, ok := st.(*history.Update); ok {
			eq[i] = &history.Update{Rel: u.Rel, Set: u.Set, Where: expr.Eq(expr.Column("pickup_area"), expr.IntConst(int64(i%77)))}
		}
	}
	b.Run("eq", tip(eq))
}
