package core

import (
	"context"
	"testing"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// planTestEngine builds a three-relation history: orders is updated,
// deleted from and inserted into with VALUES; archive is fed from
// orders by INSERT … SELECT; audit is written but never depends on a
// modified statement, so taint analysis skips it.
func planTestEngine(t *testing.T) *Engine {
	t.Helper()
	db := storage.NewDatabase()
	orders := storage.NewRelation(schema.New("orders",
		schema.Col("id", types.KindInt),
		schema.Col("price", types.KindFloat),
		schema.Col("fee", types.KindFloat),
	))
	for i := 0; i < 40; i++ {
		orders.Add(schema.NewTuple(types.Int(int64(i)), types.Float(float64(20+3*i)), types.Float(5)))
	}
	db.AddRelation(orders)
	db.AddRelation(storage.NewRelation(schema.New("archive",
		schema.Col("id", types.KindInt),
		schema.Col("price", types.KindFloat),
		schema.Col("fee", types.KindFloat),
	)))
	db.AddRelation(storage.NewRelation(schema.New("audit",
		schema.Col("n", types.KindInt),
	)))
	e := New(storage.NewVersioned(db))
	if _, err := e.Append(
		mustStmt(t, "UPDATE orders SET fee = 0 WHERE price >= 80"),
		mustStmt(t, "INSERT INTO audit VALUES (1)"),
		mustStmt(t, "INSERT INTO orders VALUES (100, 95.0, 5.0), (101, 30.0, 5.0)"),
		mustStmt(t, "UPDATE orders SET fee = fee + 2 WHERE price < 50"),
		mustStmt(t, "INSERT INTO archive SELECT * FROM orders WHERE fee = 0"),
		mustStmt(t, "UPDATE audit SET n = n + 1 WHERE n >= 1"),
		mustStmt(t, "DELETE FROM orders WHERE price > 130"),
		mustStmt(t, "UPDATE archive SET fee = fee + 1 WHERE price >= 100"),
	); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestZeroSlotTemplateEqualsWhatIf pins the sentence the template docs
// have always carried — "a slot-free template degenerates to a cached
// WhatIf" — for every variant and executor: same delta, same slicing
// outcome, because both are one plan.
func TestZeroSlotTemplateEqualsWhatIf(t *testing.T) {
	e := planTestEngine(t)
	scenarios := map[string][]history.Modification{
		"replace update": {history.Replace{Pos: 0, Stmt: mustStmt(t, "UPDATE orders SET fee = 0 WHERE price >= 100")}},
		"replace insert values": {history.Replace{Pos: 2,
			Stmt: mustStmt(t, "INSERT INTO orders VALUES (100, 120.0, 0.0), (102, 40.0, 5.0)")}},
		"replace insert select": {history.Replace{Pos: 4,
			Stmt: mustStmt(t, "INSERT INTO archive SELECT * FROM orders WHERE fee >= 5")}},
		"delete and insert statements": {
			history.DeleteStmt{Pos: 3},
			history.InsertStmt{Pos: 1, Stmt: mustStmt(t, "DELETE FROM orders WHERE price < 30")},
		},
	}
	for name, mods := range scenarios {
		for _, v := range []Variant{VariantR, VariantRPS, VariantRDS, VariantRFull} {
			for _, kind := range []ExecutorKind{ExecVectorized, ExecInterpreter} {
				label := name + " " + string(v) + " " + string(kind)
				opts := OptionsFor(v)
				opts.Executor = kind
				want, st, err := e.WhatIf(mods, opts)
				if err != nil {
					t.Fatalf("%s: what-if: %v", label, err)
				}
				tpl, err := e.CompileTemplate(mods, opts)
				if err != nil {
					t.Fatalf("%s: compile: %v", label, err)
				}
				if len(tpl.Params()) != 0 {
					t.Fatalf("%s: slot-free template reports params %v", label, tpl.Params())
				}
				got, err := tpl.Eval(nil)
				if err != nil {
					t.Fatalf("%s: eval: %v", label, err)
				}
				requireSetsEqual(t, label, got, want)
				ts := tpl.Stats()
				if ts.TotalStatements != st.TotalStatements || ts.KeptStatements != st.KeptStatements || ts.SolverTests != st.SolverTests {
					t.Errorf("%s: template stats total/kept/tests = %d/%d/%d, what-if %d/%d/%d", label,
						ts.TotalStatements, ts.KeptStatements, ts.SolverTests,
						st.TotalStatements, st.KeptStatements, st.SolverTests)
				}
				if len(ts.DynamicRelations) != 0 || ts.BindingDependent != 0 {
					t.Errorf("%s: slot-free template kept something open: %+v", label, ts)
				}
			}
		}
	}
	// The history gives the variants something to disagree about: the
	// naive answer of the first scenario is non-empty on two relations
	// and audit is pruned.
	want, _, err := e.Naive(scenarios["replace update"])
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := e.WhatIf(scenarios["replace update"], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"orders", "archive"} {
		if want[rel].Empty() || !got[rel].Equal(want[rel]) {
			t.Errorf("%s: want a non-empty delta equal to naive, got %d vs %d tuples", rel, got[rel].Size(), want[rel].Size())
		}
	}
	if len(st.SkippedRelations) != 1 || st.SkippedRelations[0] != "audit" {
		t.Errorf("SkippedRelations = %v, want [audit]", st.SkippedRelations)
	}
}

// TestCompileTemplateSingleFlight: a template compile is not shared
// between callers, so a failed one leaves nothing for the next to
// join: a compile under a cancelled context fails, and the retry under
// a live one compiles its own template with no recompile.
func TestCompileTemplateSingleFlight(t *testing.T) {
	w, e := templateWorkload(t, 600, 12, 91)
	sess := e.NewSession()
	mods := paramMods(w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.CompileTemplateCtx(ctx, mods, DefaultOptions()); err == nil {
		t.Fatal("compile under a cancelled context succeeded")
	}
	tpl, err := sess.CompileTemplateCtx(context.Background(), mods, DefaultOptions())
	if err != nil {
		t.Fatalf("retry after a cancelled compile: %v", err)
	}
	if rc := tpl.Stats().Recompiles; rc != 0 {
		t.Errorf("Recompiles = %d, want 0", rc)
	}
}
