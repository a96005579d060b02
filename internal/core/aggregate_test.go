package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

func mustStmt(t testing.TB, src string) history.Statement {
	t.Helper()
	st, err := sql.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st
}

func mustAggQuery(t testing.TB, src string) AggregateQuery {
	t.Helper()
	q, err := sql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	aq, err := NewAggregateQuery(src, q)
	if err != nil {
		t.Fatal(err)
	}
	return aq
}

// ordersEngine builds a tiny orders history:
//
//	v1: INSERT (1,east,10) (2,east,20) (3,west,30) (4,north,5)
//	v2: UPDATE east amounts += 5
//	v3: DELETE amount > 30 (deletes nothing historically)
func ordersEngine(t testing.TB) *Engine {
	t.Helper()
	db := storage.NewDatabase()
	db.AddRelation(storage.NewRelation(schema.New("orders",
		schema.Col("id", types.KindInt),
		schema.Col("region", types.KindString),
		schema.Col("amount", types.KindInt),
	)))
	e := New(storage.NewVersioned(db))
	_, err := e.Append(
		mustStmt(t, "INSERT INTO orders VALUES (1, 'east', 10), (2, 'east', 20), (3, 'west', 30), (4, 'north', 5)"),
		mustStmt(t, "UPDATE orders SET amount = amount + 5 WHERE region = 'east'"),
		mustStmt(t, "DELETE FROM orders WHERE amount > 30"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func requireRow(t *testing.T, got AggregateRow, group, hist, hyp, dlt schema.Tuple) {
	t.Helper()
	if !got.Group.Equal(group) {
		t.Fatalf("group: got %s want %s", got.Group, group)
	}
	check := func(name string, g, w schema.Tuple) {
		t.Helper()
		if (g == nil) != (w == nil) {
			t.Fatalf("%s of group %s: got %v want %v", name, group, g, w)
		}
		if g != nil && !g.Equal(w) {
			t.Fatalf("%s of group %s: got %s want %s", name, group, g, w)
		}
	}
	check("historical", got.Historical, hist)
	check("hypothetical", got.Hypothetical, hyp)
	check("delta", got.Delta, dlt)
}

// TestWhatIfAggregates pins the aggregate what-if contract end to end:
// the boost-east scenario pushes both east rows over the delete
// threshold, so the east group dies in the hypothetical world (null
// side, null deltas) while untouched groups report zero deltas. Both
// executors and the naive algorithm must produce the identical report.
func TestWhatIfAggregates(t *testing.T) {
	e := ordersEngine(t)
	mods := []history.Modification{history.Replace{Pos: 1,
		Stmt: mustStmt(t, "UPDATE orders SET amount = amount + 100 WHERE region = 'east'")}}
	queries := []AggregateQuery{
		mustAggQuery(t, "SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM orders GROUP BY region"),
		mustAggQuery(t, "SELECT COUNT(*) AS n, AVG(amount) AS a FROM orders"),
	}

	verify := func(t *testing.T, reps []AggregateReport) {
		t.Helper()
		if len(reps) != 2 {
			t.Fatalf("want 2 reports, got %d", len(reps))
		}
		grouped := reps[0]
		if !reflect.DeepEqual(grouped.GroupColumns, []string{"region"}) ||
			!reflect.DeepEqual(grouped.AggColumns, []string{"n", "s"}) {
			t.Fatalf("report columns: %v / %v", grouped.GroupColumns, grouped.AggColumns)
		}
		if len(grouped.Rows) != 3 {
			t.Fatalf("want 3 groups, got %d: %+v", len(grouped.Rows), grouped.Rows)
		}
		requireRow(t, grouped.Rows[0],
			schema.NewTuple(types.String("east")),
			schema.NewTuple(types.Int(2), types.Int(40)),
			nil,
			schema.NewTuple(types.Null(), types.Null()))
		requireRow(t, grouped.Rows[1],
			schema.NewTuple(types.String("west")),
			schema.NewTuple(types.Int(1), types.Int(30)),
			schema.NewTuple(types.Int(1), types.Int(30)),
			schema.NewTuple(types.Int(0), types.Int(0)))
		requireRow(t, grouped.Rows[2],
			schema.NewTuple(types.String("north")),
			schema.NewTuple(types.Int(1), types.Int(5)),
			schema.NewTuple(types.Int(1), types.Int(5)),
			schema.NewTuple(types.Int(0), types.Int(0)))

		global := reps[1]
		if len(global.Rows) != 1 {
			t.Fatalf("global aggregate: want 1 row, got %d", len(global.Rows))
		}
		requireRow(t, global.Rows[0],
			schema.Tuple{},
			schema.NewTuple(types.Int(4), types.Float(18.75)),
			schema.NewTuple(types.Int(2), types.Float(17.5)),
			schema.NewTuple(types.Int(-2), types.Float(-1.25)))
	}

	for _, kind := range []ExecutorKind{ExecVectorized, ExecInterpreter} {
		opts := DefaultOptions()
		opts.Executor = kind
		_, reps, _, err := e.WhatIfAggregates(mods, queries, opts)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		t.Run(string(kind), func(t *testing.T) { verify(t, reps) })
	}

	// The session path (shared caches, cached historical side) must
	// agree, twice in a row (second call reuses the compiled programs
	// and the historical γ state).
	sess := e.NewSession()
	for i := 0; i < 2; i++ {
		_, reps, _, err := sess.WhatIfAggregatesCtx(context.Background(), mods, queries, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		verify(t, reps)
	}
	// And the naive algorithm.
	_, reps, _, err := sess.NaiveAggregatesCtx(context.Background(), mods, queries)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, reps)
}

// TestBatchAggregates attaches queries per scenario: an unattached
// scenario reports none, an attached one reports per-group deltas, and
// an insert scenario surfaces a hypothetical-only group with a null
// historical side.
func TestBatchAggregates(t *testing.T) {
	e := ordersEngine(t)
	q := mustAggQuery(t, "SELECT region, SUM(amount) AS s FROM orders GROUP BY region")
	scenarios := []Scenario{
		{Label: "plain", Mods: []history.Modification{history.Replace{Pos: 1,
			Stmt: mustStmt(t, "UPDATE orders SET amount = amount + 1 WHERE region = 'east'")}}},
		{Label: "south", Queries: []AggregateQuery{q}, Mods: []history.Modification{history.Replace{Pos: 2,
			Stmt: mustStmt(t, "INSERT INTO orders VALUES (5, 'south', 7)")}}},
	}
	results, _, err := e.WhatIfBatch(scenarios, BatchOptions{Options: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("scenario errors: %v / %v", results[0].Err, results[1].Err)
	}
	if results[0].Aggregates != nil {
		t.Fatalf("unattached scenario grew reports: %+v", results[0].Aggregates)
	}
	rows := results[1].Aggregates[0].Rows
	if len(rows) != 4 {
		t.Fatalf("want 4 groups, got %d: %+v", len(rows), rows)
	}
	requireRow(t, rows[3],
		schema.NewTuple(types.String("south")),
		nil,
		schema.NewTuple(types.Int(7)),
		schema.NewTuple(types.Null()))
}

// TestTemplateAggregates pins the differential anchor the how-to
// searcher's certificates rely on: for every binding, the template's
// aggregate report equals a fresh WhatIfAggregates over the
// substituted modifications.
func TestTemplateAggregates(t *testing.T) {
	e := ordersEngine(t)
	mods := []history.Modification{history.Replace{Pos: 1,
		Stmt: mustStmt(t, "UPDATE orders SET amount = amount + $boost WHERE region = 'east'")}}
	queries := []AggregateQuery{
		mustAggQuery(t, "SELECT region, SUM(amount) AS s, AVG(amount) AS a FROM orders GROUP BY region"),
	}
	tpl, err := e.CompileTemplate(mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bindings := []map[string]types.Value{
		{"boost": types.Int(0)},
		{"boost": types.Int(7)},
		{"boost": types.Int(100)},   // kills the east group
		{"boost": types.Float(2.5)}, // float deltas
	}
	for _, b := range bindings {
		d, reps, err := tpl.EvalAggregates(b, queries)
		if err != nil {
			t.Fatalf("binding %v: %v", b, err)
		}
		wantD, wantReps, _, err := e.WhatIfAggregates(tpl.SubstitutedMods(b), queries, DefaultOptions())
		if err != nil {
			t.Fatalf("fresh what-if for %v: %v", b, err)
		}
		requireSetsEqual(t, "template aggregate delta", d, wantD)
		if !reflect.DeepEqual(reps, wantReps) {
			t.Fatalf("binding %v: template report diverges\ntemplate: %+v\nfresh:    %+v", b, reps, wantReps)
		}
	}
	// The batch form agrees with the per-binding form.
	batch, err := tpl.EvalAggregatesBatchCtx(context.Background(), bindings, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("batch binding %d: %v", i, r.Err)
		}
		single, reps, err := tpl.EvalAggregates(bindings[i], queries)
		if err != nil {
			t.Fatal(err)
		}
		requireSetsEqual(t, "batch binding delta", r.Delta, single)
		if !reflect.DeepEqual(r.Aggregates, reps) {
			t.Fatalf("batch binding %d report diverges", i)
		}
	}
}

// TestNewAggregateQueryRejects pins the attachment contract: only
// top-level aggregations, and only closed queries.
func TestNewAggregateQueryRejects(t *testing.T) {
	q, err := sql.ParseQuery("SELECT id FROM orders WHERE amount > 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAggregateQuery("SELECT id ...", q); err == nil {
		t.Fatal("non-aggregate query must be rejected")
	}
}

// TestAggregateReportGolden pins the v1 aggregate wire format: int and
// float cells stay distinct on the wire, the NULL group is a real
// group, a zero-count global row is present (not null) on both sides,
// groups born or killed by the scenario carry a JSON-null side, and an
// empty grouped result is [] rather than null.
func TestAggregateReportGolden(t *testing.T) {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("t",
		schema.Col("g", types.KindString),
		schema.Col("v", types.KindInt),
	))
	r.Add(
		schema.NewTuple(types.String("a"), types.Int(1)),
		schema.NewTuple(types.String("a"), types.Int(2)),
		schema.NewTuple(types.Null(), types.Int(3)),
		schema.NewTuple(types.String("b"), types.Int(4)),
	)
	db.AddRelation(r)
	d := delta.Set{"t": &delta.Result{
		Relation: "t",
		Schema:   r.Schema,
		Minus:    []schema.Tuple{schema.NewTuple(types.String("b"), types.Int(4))},
		Plus: []schema.Tuple{
			schema.NewTuple(types.String("c"), types.Int(5)),
			schema.NewTuple(types.String("a"), types.Int(10)),
			schema.NewTuple(types.Null(), types.Float(2.5)),
		},
	}}
	queries := []AggregateQuery{
		mustAggQuery(t, "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g"),
		mustAggQuery(t, "SELECT COUNT(*) AS n FROM t WHERE v > 100"),
		mustAggQuery(t, "SELECT g, COUNT(*) AS n FROM t WHERE v > 100 GROUP BY g"),
	}
	reps, err := computeAggregates(context.Background(), queries, d, db, evaluator{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(map[string]any{"aggregates": reps}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "aggregate_v1.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("aggregate wire format drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
