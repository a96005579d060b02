package core

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// TestAggregatesRejectFrameMismatch: a delta that does not fit the
// historical state it is applied to was computed against another tip.
// Reporting aggregates of such a patch would be silently wrong, so it
// must fail.
func TestAggregatesRejectFrameMismatch(t *testing.T) {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("t", schema.Col("g", types.KindString), schema.Col("v", types.KindInt)))
	r.Add(
		schema.NewTuple(types.String("a"), types.Int(1)),
		schema.NewTuple(types.String("a"), types.Int(1)),
		schema.NewTuple(types.String("b"), types.Int(2)),
	)
	db.AddRelation(r)
	queries := []AggregateQuery{mustAggQuery(t, "SELECT g, SUM(v) AS s FROM t GROUP BY g")}
	a1 := schema.NewTuple(types.String("a"), types.Int(1))

	for _, tc := range []struct {
		name string
		d    delta.Set
		want string // substring of the error; "" = must succeed
	}{
		{"both copies present", delta.Set{"t": {Relation: "t", Schema: r.Schema, Minus: []schema.Tuple{a1, a1}}}, ""},
		{"minus tuple absent from the tip", delta.Set{"t": {Relation: "t", Schema: r.Schema,
			Minus: []schema.Tuple{schema.NewTuple(types.String("z"), types.Int(9))}}}, "does not hold"},
		{"minus multiplicity above the tip's", delta.Set{"t": {Relation: "t", Schema: r.Schema, Minus: []schema.Tuple{a1, a1, a1}}}, "removes 1 tuple"},
		{"delta for an unknown relation", delta.Set{"gone": {Relation: "gone", Schema: r.Schema, Plus: []schema.Tuple{a1}}}, `no relation "gone"`},
		{"empty delta for an unknown relation", delta.Set{"gone": {Relation: "gone", Schema: r.Schema}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := computeAggregates(context.Background(), queries, tc.d, db, evaluator{})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("want an error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestHypotheticalResultsNotCached: a session keeps no reenactment
// result and no reenactment program, only what reports remember on a
// snapshot. An identical repeated what-if compiles and runs both
// reenactment sides again; the historical report's γ state and the
// program that folded it are remembered on the tip snapshot, built once
// and reused by the repeat. The hypothetical state is not a history
// version, so nothing evaluated over it is kept either.
func TestHypotheticalResultsNotCached(t *testing.T) {
	e := ordersEngine(t)
	sess := e.NewSession()
	mods := []history.Modification{history.Replace{Pos: 1,
		Stmt: mustStmt(t, "UPDATE orders SET amount = amount + 7 WHERE region = 'east'")}}
	queries := []AggregateQuery{mustAggQuery(t, "SELECT SUM(amount) AS s FROM orders")}
	call := func() SessionStats {
		t.Helper()
		_, reps, _, err := sess.WhatIfAggregatesCtx(context.Background(), mods, queries, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		requireRow(t, reps[0].Rows[0], schema.Tuple{},
			schema.NewTuple(types.Int(75)), schema.NewTuple(types.Int(79)), schema.NewTuple(types.Int(4)))
		return sess.Stats()
	}
	first := call()
	// Original side, modified side and the report's γ: three programs
	// compiled.
	if first.QueryMisses != 3 || first.QueryHits != 0 || first.DeltaRowsCompared == 0 {
		t.Fatalf("first call: %d programs compiled, %d reused, %d rows compared; want 3, 0 and some",
			first.QueryMisses, first.QueryHits, first.DeltaRowsCompared)
	}
	// The historical γ state and the row-hash index of the frame check,
	// each built once on the tip snapshot.
	if first.ReportArtifactMisses != 2 || first.ReportArtifactHits != 0 {
		t.Fatalf("first call: %d report artifacts built, %d reused; want 2 and 0", first.ReportArtifactMisses, first.ReportArtifactHits)
	}
	second := call()
	if got := second.DeltaRowsCompared - first.DeltaRowsCompared; got != first.DeltaRowsCompared {
		t.Fatalf("repeat call compared %d rows, want the first call's %d: a reenactment side was not run again", got, first.DeltaRowsCompared)
	}
	// Both reenactment sides compile again; the γ program rides the
	// historical state.
	if got := second.QueryMisses - first.QueryMisses; got != 2 {
		t.Fatalf("repeat call compiled %d programs, want 2", got)
	}
	if got := second.QueryHits - first.QueryHits; got != 1 {
		t.Fatalf("repeat call reused %d programs, want 1", got)
	}
	if second.ReportArtifactMisses != 2 || second.ReportArtifactHits != 2 {
		t.Fatalf("repeat call: %d report artifacts built, %d reused; want 2 and 2", second.ReportArtifactMisses, second.ReportArtifactHits)
	}
	if second.Reports.Merged != 2 || second.Reports.Patched != 0 {
		t.Fatalf("report routes %+v, want 2 merged", second.Reports)
	}
}

// oracleReports answers the attached queries without patchRelation:
// the modified history is re-executed from the initial state (Alg. 1's
// hypothetical database) and each query runs through the interpreter
// on that database and on the actual tip.
func oracleReports(t *testing.T, e *Engine, mods []history.Modification, queries []AggregateQuery) (hist, hyp []*storage.Relation) {
	t.Helper()
	h, err := e.History()
	if err != nil {
		t.Fatal(err)
	}
	pair, err := history.ApplyModifications(h, mods)
	if err != nil {
		t.Fatal(err)
	}
	world, err := e.vdb.Version(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.Mod.Apply(world); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		ro, err := algebra.Eval(q.Query, e.vdb.Current())
		if err != nil {
			t.Fatal(err)
		}
		rm, err := algebra.Eval(q.Query, world)
		if err != nil {
			t.Fatal(err)
		}
		hist, hyp = append(hist, ro), append(hyp, rm)
	}
	return hist, hyp
}

// requireReportsMatchOracle checks each report group against the
// oracle's rows in both worlds. Row order is not compared: the patched
// relation lists changed tuples last, the re-executed one in place.
func requireReportsMatchOracle(t *testing.T, label string, reps []AggregateReport, hist, hyp []*storage.Relation) {
	t.Helper()
	if len(reps) != len(hist) {
		t.Fatalf("%s: %d reports for %d queries", label, len(reps), len(hist))
	}
	for qi, rep := range reps {
		ng := len(rep.GroupColumns)
		side := func(rel *storage.Relation, g schema.Tuple) schema.Tuple {
			for _, row := range rel.Tuples {
				if row[:ng].Equal(g) {
					return row[ng:]
				}
			}
			return nil
		}
		groups := storage.NewTupleIndex(0)
		for _, rel := range []*storage.Relation{hist[qi], hyp[qi]} {
			for _, row := range rel.Tuples {
				groups.Remove(row[:ng]) // one entry per group
				groups.Add(row[:ng])
			}
		}
		if len(rep.Rows) != groups.Len() {
			t.Fatalf("%s, %s: %d report rows, oracle has %d groups", label, rep.Query, len(rep.Rows), groups.Len())
		}
		for _, row := range rep.Rows {
			for _, s := range []struct {
				name      string
				got, want schema.Tuple
			}{
				{"historical", row.Historical, side(hist[qi], row.Group)},
				{"hypothetical", row.Hypothetical, side(hyp[qi], row.Group)},
			} {
				if (s.got == nil) != (s.want == nil) || !s.got.Equal(s.want) {
					t.Fatalf("%s, %s, group %s: %s is %v, re-executed history says %v", label, rep.Query, row.Group, s.name, s.got, s.want)
				}
			}
		}
	}
}

// TestReportsMatchReexecutedHistory anchors every report surface to an
// oracle that shares nothing with the delta-patching tail. The history
// leaves two identical tuples at the tip of which the scenario changes
// only one, so Minus holds one copy of a duplicated tuple; amounts are
// multiples of 0.25, so float sums are exact in any order.
func TestReportsMatchReexecutedHistory(t *testing.T) {
	db := storage.NewDatabase()
	db.AddRelation(storage.NewRelation(schema.New("orders",
		schema.Col("id", types.KindInt),
		schema.Col("region", types.KindString),
		schema.Col("amount", types.KindFloat),
	)))
	e := New(storage.NewVersioned(db))
	if _, err := e.Append(
		mustStmt(t, "INSERT INTO orders VALUES (1, 'east', 10.0), (1, 'east', 20.0), (2, 'east', 7.5), (3, 'west', 30.25), (4, 'north', 5.0)"),
		mustStmt(t, "UPDATE orders SET amount = 20.0 WHERE amount = 10.0"), // now two (1, east, 20.0)
		mustStmt(t, "UPDATE orders SET amount = amount + 0.5 WHERE region = 'west'"),
		mustStmt(t, "DELETE FROM orders WHERE amount > 100"),
	); err != nil {
		t.Fatal(err)
	}
	queries := []AggregateQuery{
		mustAggQuery(t, "SELECT region, COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a, MIN(amount) AS lo, MAX(amount) AS hi FROM orders GROUP BY region"),
		mustAggQuery(t, "SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE amount >= 20"),
		mustAggQuery(t, "SELECT id, COUNT(*) AS n FROM orders GROUP BY id"),
	}
	tmods := []history.Modification{history.Replace{Pos: 1,
		Stmt: mustStmt(t, "UPDATE orders SET amount = $to WHERE amount = 10.0")}}
	sess := e.NewSession()
	tpl, err := sess.CompileTemplate(tmods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, to := range []types.Value{types.Float(20), types.Float(33.25), types.Float(500), types.Int(7)} {
		binding := map[string]types.Value{"to": to}
		mods := tpl.SubstitutedMods(binding)
		hist, hyp := oracleReports(t, e, mods, queries)

		for _, kind := range []ExecutorKind{ExecVectorized, ExecInterpreter} {
			opts := DefaultOptions()
			opts.Executor = kind
			d, reps, _, err := e.WhatIfAggregates(mods, queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireReportsMatchOracle(t, "what-if "+string(kind)+" to="+to.String(), reps, hist, hyp)
			if to.Equal(types.Float(33.25)) {
				if m := d["orders"].Minus; len(m) != 1 || !m[0].Equal(schema.NewTuple(types.Int(1), types.String("east"), types.Float(20))) {
					t.Fatalf("want one copy of the duplicated tuple in Minus, got %v", m)
				}
			}
		}
		_, reps, _, err := sess.WhatIfAggregatesCtx(ctx, mods, queries, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		requireReportsMatchOracle(t, "session to="+to.String(), reps, hist, hyp)
		if _, reps, _, err = sess.NaiveAggregatesCtx(ctx, mods, queries); err != nil {
			t.Fatal(err)
		}
		requireReportsMatchOracle(t, "naive to="+to.String(), reps, hist, hyp)
		if _, reps, err = tpl.EvalAggregatesCtx(ctx, binding, queries); err != nil {
			t.Fatal(err)
		}
		requireReportsMatchOracle(t, "template to="+to.String(), reps, hist, hyp)
	}
}

// patchRelationByKey is patchRelation as it was before typed identity:
// Minus counted in a map keyed by the rendered tuple. It stays here as
// the oracle for "same delta ⇒ same patched sequence ⇒ same report".
func patchRelationByKey(hist *storage.Relation, d *delta.Result) *storage.Relation {
	minus := make(map[string]int, len(d.Minus))
	for _, t := range d.Minus {
		minus[t.Key()]++
	}
	out := storage.NewRelation(hist.Schema)
	out.Tuples = []schema.Tuple{}
	for _, t := range hist.Tuples {
		if k := t.Key(); minus[k] > 0 {
			minus[k]--
			continue
		}
		out.Tuples = append(out.Tuples, t)
	}
	out.Tuples = append(out.Tuples, d.Plus...)
	return out
}

// TestPatchMatchesStringKeyedPatch: for a given delta the typed patch
// must produce the very sequence the string-keyed one did — survivors
// in place, earliest duplicates removed, Plus appended in delta order —
// because group order and float accumulation order follow from it.
func TestPatchMatchesStringKeyedPatch(t *testing.T) {
	// No -0.0 in the pool: the rendered key told it from +0.0 ("f:-0"),
	// which Equal, Hash and therefore the delta itself never did.
	cells := []types.Value{
		types.Null(), types.Int(0), types.Int(1), types.Float(1), types.Float(0.1), types.Float(0.7),
		types.String("a"), types.String("1"), types.Bool(true),
	}
	s := schema.New("t", schema.Col("g", types.KindString), schema.Col("v", types.KindFloat))
	q := mustAggQuery(t, "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g")
	r := rand.New(rand.NewSource(7))
	row := func() schema.Tuple {
		// v is numeric or NULL, mostly tenths: SUM/AVG accumulate floats
		// whose last bits depend on the order.
		v := cells[r.Intn(4)]
		if r.Intn(3) > 0 {
			v = types.Float(float64(r.Intn(7)) / 10)
		}
		return schema.Tuple{cells[r.Intn(len(cells))], v}
	}
	for i := 0; i < 300; i++ {
		hist := storage.NewRelation(s)
		for n := r.Intn(30); n > 0; n-- {
			hist.Tuples = append(hist.Tuples, row())
		}
		d := &delta.Result{Relation: "t", Schema: s}
		for _, k := range r.Perm(len(hist.Tuples))[:r.Intn(len(hist.Tuples)+1)/2] {
			d.Minus = append(d.Minus, hist.Tuples[k])
		}
		for n := r.Intn(5); n > 0; n-- {
			d.Plus = append(d.Plus, row())
		}
		want := patchRelationByKey(hist, d)
		got, err := patchRelation(hist, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tuples, want.Tuples) {
			t.Fatalf("case %d: patched sequence differs\ngot  %v\nwant %v", i, got.Tuples, want.Tuples)
		}

		histDB, wantDB := storage.NewDatabase(), storage.NewDatabase()
		histDB.AddRelation(hist)
		wantDB.AddRelation(want)
		wantRep, err := aggregateReport(q, histDB, wantDB, evaluator{})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := computeAggregates(context.Background(), []AggregateQuery{q}, delta.Set{"t": d}, histDB, evaluator{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reps[0], wantRep) {
			t.Fatalf("case %d: report differs from the string-keyed patch's\ngot  %+v\nwant %+v", i, reps[0], wantRep)
		}
	}
}

var benchReports []AggregateReport

// BenchmarkAggregateReport is the report tail of one template eval: an
// 8 000-row Taxi tip, a ~6 % delta, one GROUP BY report, through a
// session-shaped evaluator (program shared) over a tip published the
// way a session's snapshot cache publishes it — frozen, so what a
// report remembers on it is built in the first iteration and reused.
func BenchmarkAggregateReport(b *testing.B) {
	hist := workload.Taxi(8000, 1).Rel
	mod := storage.NewRelation(hist.Schema)
	mod.Tuples = append(mod.Tuples, hist.Tuples...)
	for i := 0; i < len(mod.Tuples); i += 16 {
		row := mod.Tuples[i].Clone()
		row[6] = types.Float(row[6].AsFloat() + 1)
		mod.Tuples[i] = row
	}
	d := delta.Set{"trips": delta.Compute(hist, mod)}
	db := storage.NewDatabase()
	db.AddRelation(hist)
	tip, err := storage.NewSnapshotCache(storage.NewVersioned(db)).SnapshotCtx(context.Background(), 0)
	if err != nil {
		b.Fatal(err)
	}
	queries := []AggregateQuery{mustAggQuery(b, "SELECT company, COUNT(*) AS n, SUM(tips) AS tips, AVG(trip_total) AS total FROM trips GROUP BY company")}
	ev := evaluator{ctx: context.Background(), kind: ExecVectorized}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err := computeAggregates(context.Background(), queries, d, tip, ev)
		if err != nil {
			b.Fatal(err)
		}
		benchReports = reps
	}
}
