package mahif_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/mahif/mahif"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/persist"
)

// fee60 is Example 2's modification: u1's threshold 50 → 60.
var fee60 = []mahif.Modification{
	mahif.ReplaceSQL(0, `UPDATE orders SET shippingfee = 0 WHERE price >= 60`),
}

// TestNewDurableEngine serves the running example from a durable store
// built through the exported constructor: its answer equals the
// in-memory engine's, before and after the store is closed and opened
// again.
func TestNewDurableEngine(t *testing.T) {
	vdb := paperExample(t)
	want, _, err := mahif.NewEngine(vdb).WhatIf(fee60, mahif.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	log, _ := vdb.LogRange(0, 0)
	hist := make([]mahif.Statement, len(log))
	for i, m := range log {
		hist[i] = m.(mahif.Statement)
	}
	dir := filepath.Join(t.TempDir(), "data")
	store, err := persist.Create(dir, vdb.Base().Clone(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine := mahif.NewDurableEngine(store)
	if _, err := engine.AppendCtx(context.Background(), hist); err != nil {
		t.Fatal(err)
	}
	check := func(label string, e *mahif.Engine) {
		t.Helper()
		got, _, err := e.WhatIf(fee60, mahif.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: durable answer\n%s\nin-memory answer\n%s", label, got, want)
		}
	}
	check("fresh store", engine)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopened store", mahif.NewDurableEngine(reopened))
}

// TestParseAggregateQuery attaches a parsed GROUP BY report to Example
// 2's what-if: UK's fees sum to 13 in the actual history and to 18 in
// the hypothetical one (Alex keeps his fee and gets UK's +5). A query
// that does not aggregate is refused.
func TestParseAggregateQuery(t *testing.T) {
	aq, err := mahif.ParseAggregateQuery(`SELECT country, SUM(shippingfee) AS fees FROM orders GROUP BY country`)
	if err != nil {
		t.Fatal(err)
	}
	_, reps, _, err := mahif.NewEngine(paperExample(t)).WhatIfAggregates(fee60, []mahif.AggregateQuery{aq}, mahif.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	uk := mahif.NewTuple(mahif.Str("UK"))
	found := false
	for _, row := range reps[0].Rows {
		if !row.Group.Equal(uk) {
			continue
		}
		found = true
		if !row.Historical.Equal(mahif.NewTuple(mahif.Int(13))) || !row.Hypothetical.Equal(mahif.NewTuple(mahif.Int(18))) {
			t.Fatalf("UK fees: historical %s, hypothetical %s; want (13), (18)", row.Historical, row.Hypothetical)
		}
	}
	if !found {
		t.Fatalf("no UK group in %+v", reps[0].Rows)
	}
	if _, err := mahif.ParseAggregateQuery(`SELECT id FROM orders`); err == nil {
		t.Fatal("a query without an aggregate was accepted")
	}
}

// TestParseConditionAndParameter: a parsed condition holding $cut is
// the expression Parameter builds, and a template whose replacement is
// built with Parameter answers a binding like the what-if spelled with
// the bound constant.
func TestParseConditionAndParameter(t *testing.T) {
	built := expr.Ge(expr.Column("price"), mahif.Parameter("cut"))
	parsed, err := mahif.ParseCondition(`price >= $cut`)
	if err != nil {
		t.Fatal(err)
	}
	if !expr.Equal(parsed, built) {
		t.Fatalf("ParseCondition gave %s, Parameter built %s", parsed, built)
	}
	if _, err := mahif.ParseCondition(`price >=`); err == nil {
		t.Fatal("an incomplete condition was accepted")
	}

	engine := mahif.NewEngine(paperExample(t))
	upd := &history.Update{Rel: "orders", Set: []history.SetClause{{Col: "shippingfee", E: expr.IntConst(0)}}, Where: built}
	tpl, err := engine.CompileTemplate([]mahif.Modification{history.Replace{Pos: 0, Stmt: upd}}, mahif.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tpl.Eval(map[string]mahif.Value{"cut": mahif.Int(60)})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := engine.WhatIf(fee60, mahif.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("template with cut = 60:\n%s\nwhat-if:\n%s", got, want)
	}
}

// TestProveEquivalentCtx: under a live context the ctx form gives
// ProveEquivalent's result; under a cancelled one it returns
// context.Canceled.
func TestProveEquivalentCtx(t *testing.T) {
	orders, err := paperExample(t).Base().Relation("orders")
	if err != nil {
		t.Fatal(err)
	}
	s := orders.Schema
	h1, err := mahif.ParseStatements(`UPDATE orders SET shippingfee = 0 WHERE price >= 50`)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := mahif.ParseStatements(`UPDATE orders SET shippingfee = 0 WHERE price >= 60`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mahif.ProveEquivalent(h1, h2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Definitive || want.Equivalent {
		t.Fatalf("thresholds 50 and 60 proven %+v, want definitively different", *want)
	}
	got, err := mahif.ProveEquivalentCtx(context.Background(), h1, h2, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ProveEquivalentCtx = %+v, ProveEquivalent = %+v", *got, *want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mahif.ProveEquivalentCtx(ctx, h1, h2, s, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ProveEquivalentCtx returned %v, want context.Canceled", err)
	}
}
