package core

import (
	"testing"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/workload"
)

// TestOptionsForVariants pins the variant → options mapping.
func TestOptionsForVariants(t *testing.T) {
	cases := []struct {
		v          Variant
		ps, ds, is bool
	}{
		{VariantR, false, false, false},
		{VariantRPS, true, false, true},
		{VariantRDS, false, true, false},
		{VariantRFull, true, true, true},
	}
	for _, c := range cases {
		o := OptionsFor(c.v)
		if o.ProgramSlicing != c.ps || o.DataSlicing != c.ds || o.InsertSplit != c.is {
			t.Errorf("%s: got PS=%v DS=%v split=%v", c.v, o.ProgramSlicing, o.DataSlicing, o.InsertSplit)
		}
	}
}

// optionSweep answers the same query under many option combinations;
// all must agree with the naive answer.
func TestOptionCombinationsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("18-way option sweep answers the query once per combination")
	}
	ds := workload.Taxi(900, 31)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 10, Mods: 1, DependentPct: 30, AffectedPct: 12,
		InsertPct: 10, DeletePct: 10, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	want, _, err := engine.Naive(w.Mods)
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Rel.Schema.Relation

	variants := []Options{}
	for _, ps := range []bool{false, true} {
		for _, dsOn := range []bool{false, true} {
			for _, split := range []bool{false, true} {
				for _, dep := range []bool{false, true} {
					variants = append(variants, Options{
						ProgramSlicing: ps, DataSlicing: dsOn, InsertSplit: split,
						UseDependency: dep,
					})
				}
			}
		}
	}
	// Plus: alternative compression settings.
	variants = append(variants,
		Options{ProgramSlicing: true, DataSlicing: true, InsertSplit: true, UseDependency: true,
			Compress: symbolic.CompressOptions{Groups: 1}},
		Options{ProgramSlicing: true, DataSlicing: true, InsertSplit: true, UseDependency: true,
			Compress: symbolic.CompressOptions{Groups: 8, GroupBy: ds.SelAttr}},
	)
	for i, opts := range variants {
		got, _, err := engine.WhatIf(w.Mods, opts)
		if err != nil {
			t.Fatalf("options %d (%+v): %v", i, opts, err)
		}
		if !got[rel].Equal(want[rel]) {
			t.Errorf("options %d (%+v): delta differs from naive", i, opts)
		}
	}
}

// TestTouchConditionAttrsAgree exercises the push-down substitution
// path: dependent updates also write the selection attribute, so data
// slicing must substitute conditional expressions through them.
func TestTouchConditionAttrsAgree(t *testing.T) {
	ds := workload.TPCC(700, 35)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 8, Mods: 1, DependentPct: 50, AffectedPct: 15,
		TouchConditionAttrs: true, Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	engine := New(vdb)
	want, _, err := engine.Naive(w.Mods)
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Rel.Schema.Relation
	for _, v := range []Variant{VariantRDS, VariantRFull} {
		got, _, err := engine.WhatIf(w.Mods, OptionsFor(v))
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !got[rel].Equal(want[rel]) {
			t.Errorf("%s: delta differs under condition-attribute writes", v)
		}
	}
}

// TestEngineWithCheckpoints: the engine must work identically over a
// store that reconstructs versions from checkpoints.
func TestEngineWithCheckpoints(t *testing.T) {
	ds := workload.YCSB(600, 39)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 9, Mods: 1, DependentPct: 30, AffectedPct: 10, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Modify a LATER statement so the engine time-travels mid-log.
	mod := w.Mods[0]
	vdbPlain, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	vdbCk, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	vdbCk.SetCheckpointEvery(2)
	// Checkpoints only affect future applies; re-apply over a fresh
	// store to exercise them.
	fresh := New(vdbCk)
	plain := New(vdbPlain)
	dPlain, _, err := plain.WhatIf([]history.Modification{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dCk, _, err := fresh.WhatIf([]history.Modification{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Rel.Schema.Relation
	if !dPlain[rel].Equal(dCk[rel]) {
		t.Error("checkpointed store changed the answer")
	}
}
