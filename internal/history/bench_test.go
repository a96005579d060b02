package history_test

import (
	"testing"

	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/workload"
)

// BenchmarkApplyHistory measures statement application on the gate's
// scan_heavy shape: a 50-update Taxi history (10 % dependent, the
// bench's shape seed) over 32 000 rows. tip loads the history into a
// fresh VersionedDatabase through Apply — the live tip's indexed path
// over one maintained IndexSet; replay rebuilds the version before the
// last statement by time travel — a clone of the base and a
// replay-private IndexSet.
func BenchmarkApplyHistory(b *testing.B) {
	w, err := workload.Generate(workload.Taxi(32000, 1), workload.Config{
		Updates: 50, Mods: 1, DependentPct: 10, AffectedPct: 10, Seed: 20220612,
	})
	if err != nil {
		b.Fatal(err)
	}
	base := w.Dataset.Database()
	b.Run("tip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			vdb := storage.NewVersioned(base)
			b.StartTimer()
			for _, st := range w.History {
				if err := vdb.Apply(st); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
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
}
