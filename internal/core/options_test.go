package core

import (
	"testing"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/workload"
)

// TestOptionsForVariants pins the variant → options mapping.
func TestOptionsForVariants(t *testing.T) {
	cases := []struct {
		v      Variant
		ps, ds bool
	}{
		{VariantR, false, false},
		{VariantRPS, true, false},
		{VariantRDS, false, true},
		{VariantRFull, true, true},
	}
	for _, c := range cases {
		o := OptionsFor(c.v)
		if o.ProgramSlicing != c.ps || o.DataSlicing != c.ds {
			t.Errorf("%s: got PS=%v DS=%v", c.v, o.ProgramSlicing, o.DataSlicing)
		}
	}
}

// TestOptionCombinationsAgree answers the same query under every
// variant on both executors; all must agree with the naive answer.
func TestOptionCombinationsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("8-way option sweep answers the query once per combination")
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

	for _, v := range []Variant{VariantR, VariantRPS, VariantRDS, VariantRFull} {
		for _, ex := range []ExecutorKind{ExecVectorized, ExecInterpreter} {
			opts := OptionsFor(v)
			opts.Executor = ex
			got, _, err := engine.WhatIf(w.Mods, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", v, ex, err)
			}
			if !got[rel].Equal(want[rel]) {
				t.Errorf("%s/%s: delta differs from naive", v, ex)
			}
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
