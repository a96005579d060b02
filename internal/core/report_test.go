package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// handQuery attaches a γ built directly in the algebra: the shapes SQL
// cannot spell (∪ and − under a γ, a self-join).
func handQuery(t *testing.T, label string, in algebra.Query, aggs ...algebra.AggExpr) AggregateQuery {
	t.Helper()
	q, err := NewAggregateQuery(label, &algebra.Aggregate{Aggs: aggs, In: in})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// publishDB returns db's contents frozen, as a session's snapshot cache
// hands out a tip.
func publishDB(t *testing.T, db *storage.Database) *storage.Database {
	t.Helper()
	frozen, err := storage.NewSnapshotCache(storage.NewVersioned(db)).Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	return frozen
}

// TestMergedReportsMatchPatchRoute is the randomized differential of
// the two report routes: for random historical states and deltas, every
// attached query's report through computeAggregates — merged where the
// states decide it — is the patch route's report (aggregateReport over
// hypotheticalDB) bit for bit, errors included, and both agree with the
// interpreter run over the patched database. The deltas remove one copy
// of duplicated rows, kill and bear groups, empty the relation, change a
// second relation, and sometimes name a Minus tuple only Equal to the
// row it removes (1 for 1.0); values are tenths, small ints, NULLs and
// rare overflowing floats. Every route, merged and each patch reason,
// must be taken.
func TestMergedReportsMatchPatchRoute(t *testing.T) {
	tSch := schema.New("t", schema.Col("id", types.KindInt), schema.Col("g", types.KindString), schema.Col("v", types.KindFloat))
	sSch := schema.New("s", schema.Col("sid", types.KindInt), schema.Col("x", types.KindInt))
	uSch := schema.New("u", schema.Col("g2", types.KindString), schema.Col("w", types.KindInt))
	v := expr.Column("v")
	queries := []AggregateQuery{
		mustAggQuery(t, "SELECT g, COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g"),
		mustAggQuery(t, "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM t"),
		mustAggQuery(t, "SELECT g, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t WHERE id >= 3 GROUP BY g"),
		mustAggQuery(t, "SELECT w, COUNT(*) AS n, SUM(v) AS s, MAX(v) AS hi FROM t JOIN u ON g = g2 GROUP BY w"),
		mustAggQuery(t, "SELECT v, COUNT(*) AS n FROM t GROUP BY v"),
		mustAggQuery(t, "SELECT x, COUNT(*) AS n, SUM(v) AS s FROM t JOIN s ON id = sid GROUP BY x"),
		handQuery(t, "γ(t ∪ σ(t))", &algebra.Union{L: &algebra.Scan{Rel: "t"}, R: &algebra.Select{Cond: expr.Gt(v, expr.IntConst(0)), In: &algebra.Scan{Rel: "t"}}},
			algebra.AggExpr{Name: "n", Fn: algebra.AggCount}, algebra.AggExpr{Name: "s", Fn: algebra.AggSum, Arg: v}),
		handQuery(t, "γ(t − σ(t))", &algebra.Difference{L: &algebra.Scan{Rel: "t"}, R: &algebra.Select{Cond: expr.Ge(expr.Column("id"), expr.IntConst(5)), In: &algebra.Scan{Rel: "t"}}},
			algebra.AggExpr{Name: "n", Fn: algebra.AggCount}),
		handQuery(t, "γ(t ⋈ t)", &algebra.Join{
			L:    &algebra.Scan{Rel: "t"},
			R:    &algebra.Project{Exprs: []algebra.NamedExpr{{Name: "id2", E: expr.Column("id")}, {Name: "v2", E: v}}, In: &algebra.Scan{Rel: "t"}},
			Cond: expr.Eq(expr.Column("id"), expr.Column("id2")),
		}, algebra.AggExpr{Name: "n", Fn: algebra.AggCount}, algebra.AggExpr{Name: "s", Fn: algebra.AggSum, Arg: expr.Column("v2")}),
	}
	r := rand.New(rand.NewSource(11))
	keys := []types.Value{types.Null(), types.String("a"), types.String("b"), types.String("c")}
	val := func() types.Value {
		switch k := r.Intn(300); {
		case k == 0:
			return types.Float(1e308)
		case k < 60:
			return types.Null()
		case k < 120:
			return types.Int(int64(r.Intn(5) - 2))
		}
		return types.Float(float64(r.Intn(41)-20) / 10)
	}
	row := func(id int) schema.Tuple { return schema.Tuple{types.Int(int64(id)), keys[r.Intn(len(keys))], val()} }

	var routes routeCounts
	ctx := context.Background()
	for c := 0; c < 400; c++ {
		db := storage.NewDatabase()
		tr, sr, ur := storage.NewRelation(tSch), storage.NewRelation(sSch), storage.NewRelation(uSch)
		pool := []schema.Tuple{row(1), row(2), row(3)}
		for n := r.Intn(30); n > 0; n-- {
			if r.Intn(3) == 0 {
				tr.Tuples = append(tr.Tuples, pool[r.Intn(len(pool))])
			} else {
				tr.Tuples = append(tr.Tuples, row(r.Intn(10)))
			}
		}
		for i := 0; i < 10; i++ {
			sr.Tuples = append(sr.Tuples, schema.Tuple{types.Int(int64(i)), types.Int(int64(r.Intn(3)))})
		}
		for i, g := range []types.Value{types.String("a"), types.String("b"), types.String("a"), types.Null()} {
			ur.Tuples = append(ur.Tuples, schema.Tuple{g, types.Int(int64(10 * (i%2 + 1)))})
		}
		db.AddRelation(tr)
		db.AddRelation(sr)
		db.AddRelation(ur)

		dt := &delta.Result{Relation: "t", Schema: tSch}
		emptied := r.Intn(10) == 0
		for _, tp := range tr.Tuples {
			if emptied || r.Intn(4) == 0 {
				m := tp
				if x := tp[2]; x.Kind() == types.KindInt && r.Intn(2) == 0 {
					m = schema.Tuple{tp[0], tp[1], types.Float(float64(x.AsInt()))}
				}
				dt.Minus = append(dt.Minus, m)
			}
		}
		if !emptied {
			for n := r.Intn(6); n > 0; n-- {
				p := row(r.Intn(12))
				if r.Intn(4) == 0 {
					p[1] = types.String("z") // a group born
				}
				dt.Plus = append(dt.Plus, p)
			}
		}
		d := delta.Set{"t": dt}
		if r.Intn(4) == 0 {
			d["s"] = &delta.Result{Relation: "s", Schema: sSch, Minus: []schema.Tuple{sr.Tuples[r.Intn(10)]},
				Plus: []schema.Tuple{{types.Int(int64(r.Intn(10))), types.Int(7)}}}
		}
		hist := db
		if c%2 == 0 {
			hist = publishDB(t, db)
		}
		hyp, err := hypotheticalDB(hist, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []ExecutorKind{ExecVectorized, ExecInterpreter} {
			ev := evaluator{ctx: ctx, kind: kind, routes: &routes}
			for _, q := range queries {
				label := fmt.Sprintf("case %d %s %s", c, kind, q.SQL)
				got, gotErr := computeAggregates(ctx, []AggregateQuery{q}, d, hist, ev)
				want, wantErr := aggregateReport(q, hist, hyp, evaluator{ctx: ctx, kind: kind})
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: merged error %v, patch route error %v", label, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if !reflect.DeepEqual(got[0], want) {
					t.Fatalf("%s: report differs from the patch route's\ngot  %+v\nwant %+v", label, got[0], want)
				}
				ro, err := algebra.Eval(q.Query, hist)
				if err != nil {
					t.Fatal(err)
				}
				rm, err := algebra.Eval(q.Query, hyp)
				if err != nil {
					t.Fatal(err)
				}
				requireReportsMatchOracle(t, label, got, []*storage.Relation{ro}, []*storage.Relation{rm})
			}
		}
	}
	for route, n := range routes {
		if n == 0 {
			t.Errorf("route %d never taken: %v", route, routes)
		}
	}
	t.Logf("reports by route (merged, shape, relations, self-join, extremum removed, extremum tie): %v", routes)
}

// TestReportsThreeWay anchors the merged route end to end: what-ifs and
// template evals through a session (the tip frozen, the historical
// state remembered on it) report what the patch route reports over the
// same tip and delta, bit for bit, and what re-executing the modified
// history gives (oracleReports). The history leaves two identical
// orders of which a scenario changes one, a scenario empties the
// relation, and a report joins an unchanged relation.
func TestReportsThreeWay(t *testing.T) {
	db := storage.NewDatabase()
	db.AddRelation(storage.NewRelation(schema.New("orders",
		schema.Col("id", types.KindInt), schema.Col("region", types.KindString), schema.Col("amount", types.KindFloat))))
	db.AddRelation(storage.NewRelation(schema.New("zones", schema.Col("zregion", types.KindString), schema.Col("zone", types.KindInt))))
	e := New(storage.NewVersioned(db))
	if _, err := e.Append(
		mustStmt(t, "INSERT INTO zones VALUES ('east', 1), ('west', 2), ('north', 1)"),
		mustStmt(t, "INSERT INTO orders VALUES (1, 'east', 10.0), (1, 'east', 20.0), (2, 'east', 7.5), (3, 'west', 30.1), (4, 'north', 5.2), (5, NULL, 0.3)"),
		mustStmt(t, "UPDATE orders SET amount = 20.0 WHERE amount = 10.0"),
		mustStmt(t, "UPDATE orders SET amount = amount + 0.1 WHERE region = 'west'"),
	); err != nil {
		t.Fatal(err)
	}
	queries := []AggregateQuery{
		mustAggQuery(t, "SELECT region, COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a FROM orders GROUP BY region"),
		mustAggQuery(t, "SELECT COUNT(*) AS n, COUNT(amount) AS c, SUM(amount) AS s, AVG(amount) AS a FROM orders"),
		mustAggQuery(t, "SELECT zone, COUNT(*) AS n, SUM(amount) AS s FROM orders JOIN zones ON region = zregion GROUP BY zone"),
		mustAggQuery(t, "SELECT region, MIN(amount) AS lo, MAX(amount) AS hi FROM orders GROUP BY region"),
	}
	scenarios := [][]history.Modification{
		{history.Replace{Pos: 2, Stmt: mustStmt(t, "UPDATE orders SET amount = 33.3 WHERE amount = 10.0")}},
		{history.Replace{Pos: 2, Stmt: mustStmt(t, "UPDATE orders SET amount = amount + 0.7 WHERE region = 'east'")}},
		{history.Replace{Pos: 1, Stmt: mustStmt(t, "INSERT INTO orders VALUES (9, 'south', 1.1), (9, 'south', 2.2)")}},
		{history.Replace{Pos: 1, Stmt: mustStmt(t, "DELETE FROM orders WHERE id < 0")}},
		{history.Replace{Pos: 3, Stmt: mustStmt(t, "UPDATE orders SET region = 'north' WHERE region = 'west'")}},
	}
	ctx := context.Background()
	for _, kind := range []ExecutorKind{ExecVectorized, ExecInterpreter} {
		opts := DefaultOptions()
		opts.Executor = kind
		sess := e.NewSession()
		for i, mods := range scenarios {
			label := fmt.Sprintf("%s scenario %d", kind, i)
			d, reps, _, err := sess.WhatIfAggregatesCtx(ctx, mods, queries, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			hist, hyp := oracleReports(t, e, mods, queries)
			requireReportsMatchOracle(t, label, reps, hist, hyp)

			tip, err := sess.shared().snapshot(ctx, e.vdb, e.Version())
			if err != nil {
				t.Fatal(err)
			}
			patched, err := hypotheticalDB(tip, d)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				want, err := aggregateReport(q, tip, patched, e.newEvaluator(ctx, opts, e.Version(), nil))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(reps[qi], want) {
					t.Fatalf("%s, %s: merged report differs from the patch route's\ngot  %+v\nwant %+v", label, q.SQL, reps[qi], want)
				}
			}
		}
		st := sess.Stats()
		if st.Reports.Merged+st.Reports.Patched != int64(len(scenarios)*len(queries)) || st.Reports.Merged == 0 {
			t.Errorf("%s: report routes %+v for %d reports", kind, st.Reports, len(scenarios)*len(queries))
		}
	}
}

// TestReportsConcurrentShareHistoricalState (run under -race): what-ifs
// and template evals with reports, concurrently through one session,
// merge into the one historical state remembered on the tip — which
// each report clones before merging — and answer what each answers
// alone.
func TestReportsConcurrentShareHistoricalState(t *testing.T) {
	e := ordersEngine(t)
	queries := []AggregateQuery{
		mustAggQuery(t, "SELECT region, COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a, MAX(amount) AS hi FROM orders GROUP BY region"),
		mustAggQuery(t, "SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders"),
	}
	tmods := []history.Modification{history.Replace{Pos: 1,
		Stmt: mustStmt(t, "UPDATE orders SET amount = amount + $boost WHERE region = 'east'")}}
	ctx := context.Background()
	want := make([][]AggregateReport, 8)
	for i := range want {
		tpl, err := e.CompileTemplate(tmods, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, want[i], err = tpl.EvalAggregatesCtx(ctx, map[string]types.Value{"boost": types.Float(float64(i) / 2)}, queries); err != nil {
			t.Fatal(err)
		}
	}
	sess := e.NewSession()
	tpl, err := sess.CompileTemplateCtx(ctx, tmods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				i := (g + round) % len(want)
				binding := map[string]types.Value{"boost": types.Float(float64(i) / 2)}
				_, reps, err := tpl.EvalAggregatesCtx(ctx, binding, queries)
				if err == nil && !reflect.DeepEqual(reps, want[i]) {
					err = fmt.Errorf("template binding %v: report differs from an engine-level eval's", binding)
				}
				if err == nil {
					_, reps, _, err = sess.WhatIfAggregatesCtx(ctx, tpl.SubstitutedMods(binding), queries, DefaultOptions())
				}
				if err == nil && !reflect.DeepEqual(reps, want[i]) {
					err = fmt.Errorf("what-if binding %v: report differs from an engine-level eval's", binding)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := sess.Stats(); st.ReportArtifactMisses != 3 {
		t.Errorf("%d report artifacts built on the one tip, want 3 (a historical state per query, the row index): %+v", st.ReportArtifactMisses, st)
	}
}

// TestTemplateSweepReportsAllMerged: on the template_sweep gate's shape
// — a Taxi history, the two templates it sweeps (a $cut threshold, a
// $bump to tips) and its GROUP BY company report with SUM and COUNT —
// every report takes the merged route, in the template's and the
// session's counts alike.
func TestTemplateSweepReportsAllMerged(t *testing.T) {
	w, err := workload.Generate(workload.Taxi(3000, 1), workload.Config{Updates: 20, Mods: 1, DependentPct: 10, AffectedPct: 10, Seed: 20220612})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	e := New(vdb)
	base := w.Mods[0].(history.Replace)
	orig := w.History[base.Pos].(*history.Update)
	tpls := [][]history.Modification{
		{history.Replace{Pos: base.Pos, Stmt: &history.Update{Rel: orig.Rel, Set: orig.Set,
			Where: expr.Ge(expr.Column(w.Dataset.SelAttr), expr.Parameter("cut"))}}},
		{history.Replace{Pos: base.Pos, Stmt: &history.Update{Rel: orig.Rel, Where: orig.Where,
			Set: []history.SetClause{{Col: "tips", E: expr.Add(expr.Column("tips"), expr.Parameter("bump"))}}}}},
	}
	queries := []AggregateQuery{mustAggQuery(t, "SELECT company, SUM(tips) AS tips, COUNT(*) AS n FROM trips GROUP BY company")}
	sess := e.NewSession()
	ctx := context.Background()
	const evals = 12
	for ti, mods := range tpls {
		tpl, err := sess.CompileTemplateCtx(ctx, mods, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < evals; i++ {
			binding := map[string]types.Value{"cut": types.Int(int64(9010 + 80*i))}
			if ti == 1 {
				binding = map[string]types.Value{"bump": types.Float(float64(i) / 4)}
			}
			_, reps, err := tpl.EvalAggregatesCtx(ctx, binding, queries)
			if err != nil {
				t.Fatal(err)
			}
			_, want, _, err := e.WhatIfAggregatesCtx(ctx, tpl.SubstitutedMods(binding), queries, OptionsFor(VariantR))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reps, want) {
				t.Fatalf("template %d binding %v: report differs from a fresh what-if's\ngot  %+v\nwant %+v", ti, binding, reps, want)
			}
		}
		if st := tpl.Stats().Reports; st.Merged != evals || st.Patched != 0 {
			t.Errorf("template %d: report routes %+v, want %d merged and none patched", ti, st, evals)
		}
	}
	if st := sess.Stats().Reports; st.Merged != 2*evals || st.Patched != 0 {
		t.Errorf("session report routes %+v, want %d merged and none patched", st, 2*evals)
	}
}
