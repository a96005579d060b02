package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// TestNonEquiJoinFallsBackCounted: a join that is not a pure equi-join
// is outside the vectorized executor's compilable subset, so a query
// holding one runs interpreted as a whole. Here a report joins
// t JOIN u ON g < g2, and the history holds an INSERT … SELECT with
// the same theta condition, so t's reenactment holds it too. The
// vectorized executor, the interpreter and Alg. 1 answer every
// scenario identically, errors included, and under the vectorized
// executor each answer raises Engine.InterpreterFallbacks: the
// fallback is counted, not silent. The second scenario replaces the
// insert ahead of the INSERT … SELECT, whose select list names its first
// column col1, so program slicing reenacts the SELECT as a branch of
// its own (reenact.InsertBranches).
func TestNonEquiJoinFallsBackCounted(t *testing.T) {
	db := storage.NewDatabase()
	db.AddRelation(storage.NewRelation(schema.New("t",
		schema.Col("id", types.KindInt), schema.Col("g", types.KindString), schema.Col("v", types.KindFloat))))
	db.AddRelation(storage.NewRelation(schema.New("u", schema.Col("g2", types.KindString), schema.Col("w", types.KindInt))))
	e := New(storage.NewVersioned(db))
	if _, err := e.Append(
		mustStmt(t, "INSERT INTO u VALUES ('a', 1), ('b', 2), ('c', 3)"),
		mustStmt(t, "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, 'c', 3.5)"),
		mustStmt(t, "INSERT INTO t SELECT id + 10, g2, v FROM t JOIN u ON g < g2"),
		mustStmt(t, "UPDATE t SET v = v + 1 WHERE id >= 2"),
	); err != nil {
		t.Fatal(err)
	}
	queries := []AggregateQuery{
		mustAggQuery(t, "SELECT w, COUNT(*) AS n, SUM(v) AS s FROM t JOIN u ON g < g2 GROUP BY w"),
	}
	scenarios := []struct {
		mods    []history.Modification
		wantErr bool
	}{
		{[]history.Modification{history.Replace{Pos: 3, Stmt: mustStmt(t, "UPDATE t SET v = v + 2 WHERE id >= 2")}}, false},
		{[]history.Modification{history.Replace{Pos: 1, Stmt: mustStmt(t, "INSERT INTO t VALUES (1, 'a', 1.5), (4, 'b', 9.5)")}}, false},
		// An int g2 meets the string g in the theta condition.
		{[]history.Modification{history.Replace{Pos: 0, Stmt: mustStmt(t, "INSERT INTO u VALUES ('a', 1), (7, 2)")}}, true},
	}
	ctx := context.Background()
	type answer struct {
		d    delta.Set
		reps []AggregateReport
		err  error
	}
	labels := []string{"vectorized", "interpreter", "Alg. 1"}
	for i, sc := range scenarios {
		var got []answer
		for _, kind := range []ExecutorKind{ExecVectorized, ExecInterpreter} {
			opts := DefaultOptions()
			opts.Executor = kind
			before := e.InterpreterFallbacks()
			d, reps, _, err := e.NewSession().WhatIfAggregatesCtx(ctx, sc.mods, queries, opts)
			if kind == ExecVectorized && e.InterpreterFallbacks() == before {
				t.Errorf("scenario %d: the vectorized answer counted no interpreter fallback", i)
			}
			got = append(got, answer{d, reps, err})
		}
		d, reps, _, err := e.NewSession().NaiveAggregatesCtx(ctx, sc.mods, queries)
		got = append(got, answer{d, reps, err})

		for j, label := range labels {
			if (got[j].err != nil) != sc.wantErr {
				t.Fatalf("scenario %d, %s: error %v, want an error: %t", i, label, got[j].err, sc.wantErr)
			}
		}
		if sc.wantErr {
			if got[0].err.Error() != got[1].err.Error() {
				t.Fatalf("scenario %d: vectorized error %q, interpreter error %q", i, got[0].err, got[1].err)
			}
			continue
		}
		want := got[1]
		for _, j := range []int{0, 2} {
			label := fmt.Sprintf("scenario %d, %s", i, labels[j])
			requireSetsEqual(t, label, got[j].d, want.d)
			if !reflect.DeepEqual(got[j].reps, want.reps) {
				t.Fatalf("%s: report differs from the interpreter's\ngot  %+v\nwant %+v", label, got[j].reps, want.reps)
			}
		}
	}
}
