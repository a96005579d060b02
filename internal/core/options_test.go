package core

import (
	"testing"

	"github.com/mahif/mahif/internal/delta"
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

// TestEngineWithCheckpoints: the engine must answer identically over a
// store that reconstructs versions from checkpoints. The checkpoints are
// registered after the history is loaded, as the durable store does,
// and the what-ifs modify later statements so time travel lands exactly
// on a checkpoint (position 4) and between two of them (position 5),
// for Alg. 2 and for Alg. 1.
func TestEngineWithCheckpoints(t *testing.T) {
	ds := workload.YCSB(600, 39)
	w, err := workload.Generate(ds, workload.Config{
		Updates: 9, Mods: 1, DependentPct: 30, AffectedPct: 10, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdbPlain, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	vdbCk, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v < vdbCk.NumVersions(); v += 2 {
		ck, err := vdbCk.Version(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := vdbCk.AddCheckpoint(v, ck); err != nil {
			t.Fatal(err)
		}
	}
	plain, ckd := New(vdbPlain), New(vdbCk)
	stmt := w.Mods[0].(history.Replace).Stmt
	rel := ds.Rel.Schema.Relation
	for _, pos := range []int{4, 5} {
		mods := []history.Modification{history.Replace{Pos: pos, Stmt: stmt}}
		want, _, err := plain.Naive(mods)
		if err != nil {
			t.Fatal(err)
		}
		if want[rel].Empty() {
			t.Fatalf("position %d: empty delta, the what-if checks nothing", pos)
		}
		for label, answer := range map[string]func(*Engine) (delta.Set, error){
			"Naive": func(e *Engine) (delta.Set, error) {
				d, _, err := e.Naive(mods)
				return d, err
			},
			"WhatIf": func(e *Engine) (delta.Set, error) {
				d, _, err := e.WhatIf(mods, DefaultOptions())
				return d, err
			},
		} {
			for name, e := range map[string]*Engine{"plain": plain, "checkpointed": ckd} {
				got, err := answer(e)
				if err != nil {
					t.Fatalf("position %d %s %s: %v", pos, name, label, err)
				}
				if !got[rel].Equal(want[rel]) {
					t.Errorf("position %d: %s %s differs from Alg. 1 over the plain store", pos, name, label)
				}
			}
		}
	}
}
