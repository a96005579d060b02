package core

import (
	"testing"

	"github.com/mahif/mahif/internal/workload"
)

// runAll answers the workload's what-if query with the naive algorithm
// and every reenactment variant, requiring identical deltas.
func runAll(t *testing.T, w *workload.Workload) {
	t.Helper()
	vdb, err := w.Load()
	if err != nil {
		t.Fatalf("loading workload: %v", err)
	}
	engine := New(vdb)
	want, _, err := engine.Naive(w.Mods)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	rel := w.Dataset.Rel.Schema.Relation
	if want[rel] == nil {
		t.Fatalf("naive produced no delta for %s", rel)
	}
	for _, v := range []Variant{VariantR, VariantRPS, VariantRDS, VariantRFull} {
		got, stats, err := engine.WhatIf(w.Mods, OptionsFor(v))
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if got[rel] == nil {
			t.Fatalf("%s produced no delta for %s", v, rel)
		}
		if !got[rel].Equal(want[rel]) {
			t.Errorf("%s delta differs from naive:\nnaive (%d tuples):\n%s\n%s (%d tuples):\n%s",
				v, want[rel].Size(), clipDelta(want[rel].String()),
				v, got[rel].Size(), clipDelta(got[rel].String()))
		}
		_ = stats
	}
}

func clipDelta(s string) string {
	if len(s) > 1500 {
		return s[:1500] + "...\n"
	}
	return s
}

func TestVariantsAgreeUpdateOnly(t *testing.T) {
	ds := workload.Taxi(1500, 1)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 12, Mods: 1, DependentPct: 25, AffectedPct: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w)
}

func TestVariantsAgreeHighSelectivity(t *testing.T) {
	ds := workload.TPCC(1200, 3)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 10, Mods: 1, DependentPct: 50, AffectedPct: 40, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w)
}

func TestVariantsAgreeWithInserts(t *testing.T) {
	ds := workload.YCSB(1000, 5)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 12, Mods: 1, DependentPct: 25, AffectedPct: 10,
		InsertPct: 20, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w)
}

func TestVariantsAgreeMixed(t *testing.T) {
	ds := workload.Taxi(1000, 7)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 12, Mods: 1, DependentPct: 25, AffectedPct: 10,
		InsertPct: 15, DeletePct: 15, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w)
}

func TestVariantsAgreeMultipleModifications(t *testing.T) {
	ds := workload.Taxi(800, 9)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 10, Mods: 3, DependentPct: 30, AffectedPct: 10, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w)
}

// TestSlicingRemovesIndependentUpdates checks the optimizer actually
// slices: with D=0 every non-modified update is provably independent
// and the slice must shrink to the modified statement alone.
func TestSlicingRemovesIndependentUpdates(t *testing.T) {
	ds := workload.Taxi(600, 11)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 8, Mods: 1, DependentPct: 0, AffectedPct: 10, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	_, stats, err := engine.WhatIf(w.Mods, OptionsFor(VariantRPS))
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeptStatements != 1 {
		t.Errorf("kept %d statements, want 1 (the modified update); slices: %+v",
			stats.KeptStatements, stats.Slices)
	}
}

// TestSlicingKeepsDependentUpdates checks the converse: with D=100 no
// update may be sliced away.
func TestSlicingKeepsDependentUpdates(t *testing.T) {
	ds := workload.Taxi(600, 13)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 8, Mods: 1, DependentPct: 100, AffectedPct: 10, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	_, stats, err := engine.WhatIf(w.Mods, OptionsFor(VariantRPS))
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeptStatements != len(w.History) {
		t.Errorf("kept %d of %d statements, want all (D=100)", stats.KeptStatements, len(w.History))
	}
}

func TestDeltaSizeMatchesBand(t *testing.T) {
	// The modification moves the threshold from T% to 0.8·T%: the delta
	// must contain exactly the tuples in the band, twice (− and +),
	// unless a dependent update re-modifies them identically on both
	// sides (it does: dependent updates apply the same change in both
	// histories, so band tuples still differ only via the modified
	// statement).
	ds := workload.Taxi(2000, 17)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 6, Mods: 1, DependentPct: 0, AffectedPct: 20, Seed: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	d, _, err := engine.WhatIf(w.Mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Count band tuples in the base data: sel in [cut80, cut100).
	selIdx := ds.Rel.Schema.ColIndex(ds.SelAttr)
	lo := int64(float64(workload.SelRange) * (1 - 0.2))     // T=20%
	hi := int64(float64(workload.SelRange) * (1 - 0.2*0.8)) // 0.8·T
	band := 0
	for _, tup := range ds.Rel.Tuples {
		v := tup[selIdx].AsInt()
		if v >= lo && v < hi {
			band++
		}
	}
	rel := ds.Rel.Schema.Relation
	if got := d[rel].Size(); got != 2*band {
		t.Errorf("delta size = %d, want 2×band = %d", got, 2*band)
	}
}
