package progslice

import (
	"context"
	"testing"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/workload"
)

// BenchmarkDependencySlice measures one §9 dependency run over a
// 75-position, half-dependent Taxi history (the shape of the gate's
// slice_heavy what-ifs) with no solver memo, so every test is simplified,
// hashed, lowered and solved: the per-run prefix cost once, then each
// test's own conjuncts.
func BenchmarkDependencySlice(b *testing.B) {
	w, err := workload.Generate(workload.Taxi(5000, 1), workload.Config{
		Updates: 75, Mods: 1, DependentPct: 50, AffectedPct: 10, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	pair, err := history.ApplyModifications(w.History, w.Mods)
	if err != nil {
		b.Fatal(err)
	}
	phiD, err := symbolic.Compress(w.Dataset.Rel, symbolic.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	in := &Input{Pair: pair, Schema: w.Dataset.Rel.Schema, PhiD: phiD}
	b.ReportAllocs()
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		res, err := DependencyCtx(context.Background(), in)
		if err != nil {
			b.Fatal(err)
		}
		st = res.Stats
	}
	b.ReportMetric(float64(st.Tests), "tests/op")
	b.ReportMetric(float64(st.Lowered), "lowered/op")
}
