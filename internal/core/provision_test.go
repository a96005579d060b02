package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// unrangedParamMods is paramMods with the slotted conjunct written
// NOT (sel < $cut): the same scenario, outside the range class (its
// conjunct is no comparison), so its bindings run its executed plan —
// under data slicing, with the relation planned unfiltered.
func unrangedParamMods(w *workload.Workload) []history.Modification {
	base := w.Mods[0].(history.Replace)
	upd := base.Stmt.(*history.Update)
	st := &history.Update{
		Rel:   upd.Rel,
		Set:   upd.Set,
		Where: expr.Negation(expr.Lt(expr.Column(w.Dataset.SelAttr), expr.Parameter("cut"))),
	}
	return []history.Modification{history.Replace{Pos: base.Pos, Stmt: st}}
}

// provisioned reports whether a band table of tpl's current artifact
// answers the binding v of its range slot.
func provisioned(tpl *Template, v types.Value) bool {
	art := tpl.art.Load()
	return art.band != nil && art.side(map[string]types.Value{art.slot.param: v}) >= 0
}

// bandRows is the relation the provisioned differential runs over: a
// slot column k with ties and NULLs, a float column f, a group g, a
// payload v, and duplicate rows whose versions trade places under the
// slotted statements, so that a band's bag difference cancels tuples
// across rows.
func bandRows() *storage.Database {
	sch := schema.New("t",
		schema.Col("k", types.KindInt), schema.Col("f", types.KindFloat),
		schema.Col("g", types.KindString), schema.Col("v", types.KindInt))
	r := storage.NewRelation(sch)
	add := func(k types.Value, f float64, g string, v int64) {
		r.Add(schema.Tuple{k, types.Float(f), types.String(g), types.Int(v)})
	}
	for i := int64(0); i < 24; i++ {
		k := types.Int(i % 16)
		if i%11 == 5 {
			k = types.Null()
		}
		add(k, float64(i%7)+0.5, []string{"a", "b", "c"}[i%3], i%5)
	}
	// Ties in k whose versions cancel: v+1 on one is the other's v.
	for _, v := range []int64{0, 1, 2, 1, 2, 3} {
		add(types.Int(10), 2.5, "a", v)
		add(types.Int(12), 3.5, "b", v)
	}
	// Rows that later statements delete in one history only.
	add(types.Int(11), 4.5, "a", 29)
	add(types.Int(13), 1.5, "b", 28)
	db := storage.NewDatabase()
	db.AddRelation(r)
	return db
}

// bandShape is one range template of the provisioned differential: the
// history's statement at position 1 with one bound made the slot $p.
type bandShape struct {
	name, orig, slotted string
	col                 int // the slot column's ordinal
}

var bandShapes = []bandShape{
	{"ge-beside-conjunct", "UPDATE t SET v = v + 1 WHERE k >= 10 AND g <> 'c'", "UPDATE t SET v = v + 1 WHERE k >= $p AND g <> 'c'", 0},
	{"gt", "UPDATE t SET v = v + 3 WHERE k > 10", "UPDATE t SET v = v + 3 WHERE k > $p", 0},
	{"le", "UPDATE t SET v = v - 1 WHERE k <= 12 AND v > 0", "UPDATE t SET v = v - 1 WHERE k <= $p AND v > 0", 0},
	{"lt-swapped", "UPDATE t SET g = 'z' WHERE 8 > k", "UPDATE t SET g = 'z' WHERE $p > k", 0},
	{"slotted-delete", "DELETE FROM t WHERE k >= 11 AND g = 'a'", "DELETE FROM t WHERE k >= $p AND g = 'a'", 0},
	{"float-lane", "UPDATE t SET v = v + 1 WHERE f >= 2.5", "UPDATE t SET v = v + 1 WHERE f >= $p", 1},
}

// bandEngine builds the engine of one shape: a statement before the
// slotted one, then deletes, an insert and updates after it that move
// the slot column and read what the slotted statement writes.
func bandEngine(t testing.TB, sh bandShape) *Engine {
	t.Helper()
	return bandEngineOn(t, sh, bandRows())
}

// bandEngineOn is bandEngine over db, which holds bandRows' relation t.
func bandEngineOn(t testing.TB, sh bandShape, db *storage.Database) *Engine {
	t.Helper()
	e := New(storage.NewVersioned(db))
	var stmts []history.Statement
	for _, src := range []string{
		"UPDATE t SET v = v * 2 WHERE k < 4",
		sh.orig,
		"DELETE FROM t WHERE v >= 30",
		"INSERT INTO t VALUES (10, 2.5, 'a', 2), (12, 3.5, 'b', 3)",
		"UPDATE t SET k = k + 1 WHERE g = 'b' AND v >= 2",
		"DELETE FROM t WHERE v = 3 AND g = 'a'",
		"UPDATE t SET v = v + 10 WHERE k >= 14",
	} {
		stmts = append(stmts, mustStmt(t, src))
	}
	if _, err := e.Append(stmts...); err != nil {
		t.Fatal(err)
	}
	return e
}

// offOrder are bindings off a range slot's order, which the union plan
// answers: ±2^53 on both lanes, NaN and ±Inf; and 2^53−1, the last int
// on it.
var offOrder = []types.Value{
	types.Int(1 << 53), types.Int(-(1 << 53)), types.Float(1 << 53), types.Float(-(1 << 53)),
	types.Int(1<<53 - 1), types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
}

// bandBindings are the bindings the differential answers for a shape:
// every input value of the slot column exactly and ±1, the bound, NULL,
// values beyond every row on both lanes, and a few halves.
func bandBindings(t testing.TB, e *Engine, sh bandShape, p0 types.Value) []types.Value {
	t.Helper()
	snap, err := e.vdb.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := snap.Relation("t")
	if err != nil {
		t.Fatal(err)
	}
	out := []types.Value{p0, types.Null(), types.Int(-1000), types.Int(1000), types.Float(-1e6), types.Float(1e6)}
	seen := map[string]bool{}
	for _, tp := range rel.Tuples {
		c := tp[sh.col]
		if c.IsNull() {
			continue
		}
		for _, d := range []float64{0, -1, 1, 0.5} {
			var v types.Value
			if c.Kind() == types.KindInt && d != 0.5 {
				v = types.Int(c.AsInt() + int64(d))
			} else {
				v = types.Float(c.AsFloat() + d)
			}
			if !seen[v.String()] {
				seen[v.String()] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// bandQueries are the reports every provisioned answer is checked with.
func bandQueries(t testing.TB) []AggregateQuery {
	return []AggregateQuery{
		mustAggQuery(t, "SELECT g, SUM(v) AS s, COUNT(*) AS n, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g"),
		mustAggQuery(t, "SELECT SUM(f) AS s, MIN(k) AS lo, MAX(k) AS hi FROM t"),
	}
}

// reportsJSON renders reports for a byte-for-byte comparison.
func reportsJSON(t testing.TB, reps []AggregateReport) string {
	t.Helper()
	b, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTemplateProvisionedDifferential: a provisioned range template's
// answer — its delta and its SUM/COUNT/AVG/MIN/MAX reports — equals a
// fresh what-if's under the same options and Alg. 1's, for both
// directions of ⋈, strict and not, a slotted DELETE, a float slot
// column, and every binding of bandBindings and offOrder, on both
// executors. Every binding with a side is answered by a band table, and
// every other one by the union plan.
func TestTemplateProvisionedDifferential(t *testing.T) {
	queries := bandQueries(t)
	for _, sh := range bandShapes {
		e := bandEngine(t, sh)
		mods := []history.Modification{history.Replace{Pos: 1, Stmt: mustStmt(t, sh.slotted)}}
		var bindings []types.Value
		for _, opts := range []Options{
			OptionsFor(VariantRPS),
			OptionsFor(VariantRFull),
			{ProgramSlicing: true, DataSlicing: true, Executor: ExecInterpreter},
		} {
			label := fmt.Sprintf("%s %s/%s", sh.name, variantName(opts), normalizeExecutor(opts.Executor))
			sess := e.NewSession()
			tpl, err := sess.CompileTemplate(mods, opts)
			if err != nil {
				t.Fatalf("%s: compile: %v", label, err)
			}
			if st := tpl.Stats(); st.Provision != "" {
				t.Fatalf("%s: not provisioned: %s", label, st.Provision)
			}
			if bindings == nil {
				bindings = append(bandBindings(t, e, sh, tpl.art.Load().slot.bound), offOrder...)
			}
			for _, v := range bindings {
				b := map[string]types.Value{"p": v}
				got, gotReps, err := tpl.EvalAggregates(b, queries)
				if err != nil {
					t.Fatalf("%s binding %s: %v", label, v, err)
				}
				anchor := anchorOptions(opts, b)
				anchor.Executor = opts.Executor
				want, wantReps, _, err := e.WhatIfAggregates(tpl.SubstitutedMods(b), queries, anchor)
				if err != nil {
					t.Fatalf("%s binding %s: fresh what-if: %v", label, v, err)
				}
				requireSetsEqual(t, fmt.Sprintf("%s binding %s", label, v), got, want)
				naive, naiveReps, _, err := sess.NaiveAggregatesCtx(context.Background(), tpl.SubstitutedMods(b), queries)
				if err != nil {
					t.Fatalf("%s binding %s: Alg. 1: %v", label, v, err)
				}
				requireSetsEqual(t, fmt.Sprintf("%s binding %s (Alg. 1)", label, v), got, naive)
				if g, w, n := reportsJSON(t, gotReps), reportsJSON(t, wantReps), reportsJSON(t, naiveReps); g != w || g != n {
					t.Fatalf("%s binding %s: reports differ\ngot   %s\nfresh %s\nAlg.1 %s", label, v, g, w, n)
				}
			}
			st := tpl.Stats()
			if want := st.Sides[0].Evals + st.Sides[1].Evals; st.ProvisionedEvals != want || want+st.FallbackEvals != int64(len(bindings)) {
				t.Fatalf("%s: %d provisioned evals of %d side and %d fallback evals, %d bindings", label, st.ProvisionedEvals, want, st.FallbackEvals, len(bindings))
			}
			if got := sess.Stats().TemplateProvisionedEvals; got != st.ProvisionedEvals {
				t.Fatalf("%s: session counts %d provisioned evals, template %d", label, got, st.ProvisionedEvals)
			}
		}
	}
}

// TestWhatIfNonFiniteConstant: a what-if whose modified statement
// compares with a NaN or ±Inf constant — each band shape's slotted
// statement, its slot bound to one, in place of the history's
// statement 1 — answers what Alg. 1 answers under program slicing,
// with and without data slicing, on both executors. The solver has no
// place for a non-finite coefficient, so the comparison lowers to a
// free indicator instead of failing the what-if.
func TestWhatIfNonFiniteConstant(t *testing.T) {
	for _, sh := range bandShapes {
		e := bandEngine(t, sh)
		slotted := []history.Modification{history.Replace{Pos: 1, Stmt: mustStmt(t, sh.slotted)}}
		for _, v := range []types.Value{types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1))} {
			mods := []history.Modification{history.SubstModParams(slotted[0], map[string]types.Value{"p": v})}
			naive, _, err := e.Naive(mods)
			if err != nil {
				t.Fatalf("%s p=%s: Alg. 1: %v", sh.name, v, err)
			}
			for _, opts := range []Options{
				OptionsFor(VariantRPS),
				OptionsFor(VariantRFull),
				{ProgramSlicing: true, Executor: ExecInterpreter},
				{ProgramSlicing: true, DataSlicing: true, Executor: ExecInterpreter},
			} {
				label := fmt.Sprintf("%s p=%s %s/%s", sh.name, v, variantName(opts), normalizeExecutor(opts.Executor))
				got, _, err := e.WhatIf(mods, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSetsEqual(t, label, got, naive)
			}
		}
	}
}

// variantName names opts' variant for labels.
func variantName(opts Options) string {
	for _, v := range []Variant{VariantR, VariantRPS, VariantRDS, VariantRFull} {
		if o := OptionsFor(v); o.ProgramSlicing == opts.ProgramSlicing && o.DataSlicing == opts.DataSlicing {
			return string(v)
		}
	}
	return "?"
}

// TestTemplateProvisionedRunsNoProgram: once a side's band table is
// built, a binding on that side compiles nothing, reenacts nothing —
// no position is compared, no row hashed — and frames its report
// without probing the tip's row-hash index: the report reads one
// artifact remembered on the tip (its historical γ state), not two.
func TestTemplateProvisionedRunsNoProgram(t *testing.T) {
	w, e := templateWorkload(t, 3000, 20, 5)
	sess := e.NewSession()
	tpl, err := sess.CompileTemplate(paramMods(w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := []AggregateQuery{mustAggQuery(t, "SELECT company, SUM(tips) AS tips, COUNT(*) AS n FROM trips GROUP BY company")}
	// The first binding of each side builds its table.
	for _, cut := range []int64{9300, 8700} {
		if _, _, err := tpl.EvalAggregates(map[string]types.Value{"cut": types.Int(cut)}, q); err != nil {
			t.Fatal(err)
		}
	}
	before := sess.Stats()
	cuts := []int64{9400, 9100, 9999, 8000, 500}
	for _, cut := range cuts {
		b := map[string]types.Value{"cut": types.Int(cut)}
		got, _, err := tpl.EvalAggregates(b, q)
		if err != nil {
			t.Fatal(err)
		}
		requireFreshWhatIf(t, fmt.Sprintf("cut %d", cut), tpl, b, got)
	}
	// The fresh what-ifs ran through their own sessions.
	after := sess.Stats()
	n := int64(len(cuts))
	switch {
	case after.TemplateProvisionedEvals-before.TemplateProvisionedEvals != n:
		t.Fatalf("%d provisioned evals, want %d", after.TemplateProvisionedEvals-before.TemplateProvisionedEvals, n)
	case after.QueryMisses != before.QueryMisses:
		t.Fatalf("provisioned evals compiled %d programs", after.QueryMisses-before.QueryMisses)
	case after.DeltaRowsCompared != before.DeltaRowsCompared, after.DeltaRowsHashed != before.DeltaRowsHashed:
		t.Fatalf("provisioned evals compared %d and hashed %d rows", after.DeltaRowsCompared-before.DeltaRowsCompared, after.DeltaRowsHashed-before.DeltaRowsHashed)
	case after.ReportArtifactHits-before.ReportArtifactHits != n, after.ReportArtifactMisses != before.ReportArtifactMisses:
		t.Fatalf("%d reports read %d remembered artifacts and built %d, want one read each", n,
			after.ReportArtifactHits-before.ReportArtifactHits, after.ReportArtifactMisses-before.ReportArtifactMisses)
	case after.Reports.Merged-before.Reports.Merged != n:
		t.Fatalf("%d of %d reports merged", after.Reports.Merged-before.Reports.Merged, n)
	}
	if st := tpl.Stats(); st.Provision != "" || st.ProvisionedEvals != n+2 {
		t.Fatalf("template: provision %q, %d provisioned evals, want \"\" and %d", st.Provision, st.ProvisionedEvals, n+2)
	}
}

// TestTemplateProvisionFallsBack: a range template whose suffix holds an
// INSERT … SELECT, and a template outside the range class, keep their
// executed plans and say why; their answers equal fresh what-ifs.
func TestTemplateProvisionFallsBack(t *testing.T) {
	sh := bandShapes[0]
	e := New(storage.NewVersioned(bandRows()))
	if _, err := e.Append(
		mustStmt(t, "UPDATE t SET v = v * 2 WHERE k < 4"),
		mustStmt(t, sh.orig),
		mustStmt(t, "INSERT INTO t SELECT k, f, 'c' AS g, v + 1 AS v FROM t WHERE v >= 2"),
		mustStmt(t, "UPDATE t SET v = v + 10 WHERE k >= 14"),
	); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		slotted, reason string
	}{
		{sh.slotted, provisionInsertQuery},
		{"UPDATE t SET v = v + 1 WHERE NOT (k < $p) AND g <> 'c'", provisionNotRange},
	} {
		tpl, err := e.CompileTemplate([]history.Modification{history.Replace{Pos: 1, Stmt: mustStmt(t, c.slotted)}}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int64{8, 10, 11, 14} {
			b := map[string]types.Value{"p": types.Int(p)}
			got, err := tpl.Eval(b)
			if err != nil {
				t.Fatal(err)
			}
			requireFreshWhatIf(t, fmt.Sprintf("%s p=%d", c.slotted, p), tpl, b, got)
		}
		if st := tpl.Stats(); st.Provision != c.reason || st.ProvisionedEvals != 0 {
			t.Fatalf("%s: provision %q, %d provisioned evals, want %q and 0", c.slotted, st.Provision, st.ProvisionedEvals, c.reason)
		}
	}
}

// TestTemplateCompileHonorsItsContext: a compile whose deadline expires
// mid-way — here inside the symbolic execution of a 2 400-statement
// history, which used to run on for tens of milliseconds unchecked —
// returns the deadline's error within compilePrompt of starting, and
// leaves nothing behind: the next compile, on a live context, succeeds
// and answers like a fresh what-if.
func TestTemplateCompileHonorsItsContext(t *testing.T) {
	w, e := templateWorkload(t, 600, 2400, 91)
	mods := paramMods(w)
	const deadline, compilePrompt = 20 * time.Millisecond, 150 * time.Millisecond
	sess := e.NewSession()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := sess.CompileTemplateCtx(ctx, mods, DefaultOptions())
	if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed > compilePrompt {
		t.Fatalf("cancelled compile returned %v after %v, want DeadlineExceeded within %v", err, elapsed, compilePrompt)
	}
	tpl, err := sess.CompileTemplateCtx(context.Background(), mods, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := map[string]types.Value{"cut": types.Int(9200)}
	got, err := tpl.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	requireFreshWhatIf(t, "after the cancelled compile", tpl, b, got)
}

// TestTemplateBandBuildHonorsItsContext: a side's first binding builds
// its band table under the binding's context. Cut at each of its looks
// at the context in turn, the build returns the context's error and
// caches nothing, until a binding finishes it; a build whose deadline
// expires mid-way returns within buildPrompt. Then the table is built
// once and every answer equals a fresh what-if's.
func TestTemplateBandBuildHonorsItsContext(t *testing.T) {
	w, e := templateWorkload(t, 20000, 10, 23)
	tpl, err := e.CompileTemplate(paramMods(w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	art := tpl.art.Load()
	b := map[string]types.Value{"cut": types.Int(9300)}
	side := art.side(b)

	const deadline, buildPrompt = 2 * time.Millisecond, 150 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = tpl.EvalCtx(ctx, b)
	if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed > buildPrompt {
		t.Fatalf("build under a %v deadline returned %v after %v, want DeadlineExceeded within %v", deadline, err, elapsed, buildPrompt)
	}
	if _, built := art.tables[side].Load(); built {
		t.Fatal("a cancelled build left its table")
	}
	looks := 0
	for ; ; looks++ {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(int64(looks))
		got, err := tpl.EvalCtx(ctx, b)
		if err == nil {
			requireFreshWhatIf(t, "built", tpl, b, got)
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut after %d looks: %v", looks, err)
		}
		if _, built := art.tables[side].Load(); built {
			t.Fatalf("cut after %d looks: the table is cached", looks)
		}
	}
	if looks < 3 {
		t.Fatalf("the build looked at its context %d times", looks)
	}
	bt, _ := art.tables[side].Load()
	for _, cut := range []int64{9000, 9999, 9301} {
		b := map[string]types.Value{"cut": types.Int(cut)}
		got, err := tpl.Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		requireFreshWhatIf(t, fmt.Sprintf("cut %d", cut), tpl, b, got)
	}
	if again, _ := art.tables[side].Load(); again != bt {
		t.Fatal("the table was built twice")
	}
}

// FuzzTemplateProvisioned draws a shape and a binding — an int, a float
// or NULL, as kind says — and checks the template's answer, its delta
// and its reports (bandQueries and provisionedQueries), against a fresh
// what-if's, whether a band table or the union plan answers it and
// whether a report is merged from the artifact's states or not. The
// shapes are bandShapes and the set-slot template setSlotShape, whose
// bindings run its executed plan over a pre-framed original side; there
// a binding may also fail on both sides. Its seeds are the edge pool:
// the slot column's input values (the band edges) and their neighbours,
// p0, NULL, and offOrder, and for the set-slot shape ±0, a half and
// NULL.
func FuzzTemplateProvisioned(f *testing.F) {
	type fixture struct {
		name string
		e    *Engine
		tpl  *Template
		// anchor is the options a binding's fresh what-if runs under.
		anchor func(map[string]types.Value) Options
		// mayFail: a binding may fail, and then fails on both sides.
		mayFail bool
	}
	byBinding := func(b map[string]types.Value) Options { return anchorOptions(DefaultOptions(), b) }
	seed := func(shape int, v types.Value) {
		switch {
		case v.IsNull():
			f.Add(uint8(shape), uint8(2), int64(0), 0.0)
		case v.Kind() == types.KindInt:
			f.Add(uint8(shape), uint8(0), v.AsInt(), 0.0)
		default:
			f.Add(uint8(shape), uint8(1), int64(0), v.AsFloat())
		}
	}
	var fixtures []fixture
	for shape, sh := range bandShapes {
		e := bandEngine(f, sh)
		tpl, err := e.CompileTemplate([]history.Modification{history.Replace{Pos: 1, Stmt: mustStmt(f, sh.slotted)}}, DefaultOptions())
		if err != nil {
			f.Fatal(err)
		}
		fixtures = append(fixtures, fixture{sh.name, e, tpl, byBinding, false})
		for _, v := range append(bandBindings(f, e, sh, tpl.art.Load().slot.bound), offOrder...) {
			seed(shape, v)
		}
	}
	e := bandEngine(f, bandShapes[0])
	tpl, err := e.CompileTemplate([]history.Modification{history.Replace{Pos: 1, Stmt: mustStmt(f, setSlotShape)}}, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	// A SET that moves v past the solver's box makes a fresh sliced
	// what-if unsound (ROADMAP item 14), and v + $p does that for a $p
	// within the box too, so the set-slot shape is anchored on variant
	// R, which runs no solver. v + ±Inf leaves the finite domain, and
	// fails for the fresh what-if as for the template.
	fixtures = append(fixtures, fixture{"set-slot", e, tpl, func(map[string]types.Value) Options { return OptionsFor(VariantR) }, true})
	for _, v := range []types.Value{types.Int(0), types.Int(2), types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(0.5), types.Null()} {
		seed(len(fixtures)-1, v)
	}
	queries := append(bandQueries(f), provisionedQueries(f)...)
	f.Fuzz(func(t *testing.T, shape, kind uint8, i int64, x float64) {
		fx := fixtures[int(shape)%len(fixtures)]
		v := types.Null()
		switch kind % 3 {
		case 0:
			v = types.Int(i)
		case 1:
			v = types.Float(x)
		}
		b := map[string]types.Value{"p": v}
		label := fmt.Sprintf("%s binding %s", fx.name, v)
		got, gotReps, err := fx.tpl.EvalAggregates(b, queries)
		want, wantReps, _, wantErr := fx.e.WhatIfAggregates(fx.tpl.SubstitutedMods(b), queries, fx.anchor(b))
		switch {
		case fx.mayFail && err != nil && wantErr != nil:
			return
		case err != nil || wantErr != nil:
			t.Fatalf("%s: template error %v, fresh what-if error %v", label, err, wantErr)
		}
		requireSetsEqual(t, label, got, want)
		if g, w := reportsJSON(t, gotReps), reportsJSON(t, wantReps); g != w {
			t.Fatalf("%s: reports differ\ngot   %s\nfresh %s", label, g, w)
		}
	})
}

// provisionedQueries are reports the provisioned route can answer:
// COUNT, SUM and AVG, grouped and global, over σ too, and one grouped by
// the slot column k, which later statements move, so that some bindings
// make a group new in the hypothetical world.
func provisionedQueries(t testing.TB) []AggregateQuery {
	return []AggregateQuery{
		mustAggQuery(t, "SELECT g, SUM(v) AS s, COUNT(*) AS n, AVG(v) AS a, COUNT(k) AS nk FROM t GROUP BY g"),
		mustAggQuery(t, "SELECT SUM(f) AS s, COUNT(*) AS n, AVG(k) AS a FROM t"),
		mustAggQuery(t, "SELECT g, SUM(v) AS s FROM t WHERE f > 2 GROUP BY g"),
		mustAggQuery(t, "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k"),
	}
}

// bandRowsWithU is bandRows plus a relation u(g2, w) that joins t on its
// group column: two rows for "a", one for "b", none for "c".
func bandRowsWithU() *storage.Database {
	db := bandRows()
	u := storage.NewRelation(schema.New("u", schema.Col("g2", types.KindString), schema.Col("w", types.KindInt)))
	u.Add(schema.Tuple{types.String("a"), types.Int(1)}, schema.Tuple{types.String("a"), types.Int(2)}, schema.Tuple{types.String("b"), types.Int(1)})
	db.AddRelation(u)
	return db
}

// setSlotShape is bandShapes[0]'s statement with its SET slotted instead
// of its bound: a template outside the range class whose bindings run
// its executed plan, over bandEngine(bandShapes[0]).
const setSlotShape = "UPDATE t SET v = v + $p WHERE k >= 10 AND g <> 'c'"

// TestTemplateProvisionedReportsDifferential: the reports of provisioned
// bindings — band tables' prefix states, an executed plan's pre-framed
// original side — equal a fresh what-if's and Alg. 1's byte for byte,
// for the COUNT/SUM/AVG reports the provisioned route answers (a join
// with an unchanged relation among them) and the MIN/MAX ones it leaves
// to the merged route, over every band shape and
// a set-slot template, on both executors. Every report is provisioned
// or counted as a fallback by reason, and the MIN/MAX, new-group and
// mixed-lanes reasons all occur.
func TestTemplateProvisionedReportsDifferential(t *testing.T) {
	queries := append(provisionedQueries(t), bandQueries(t)...)
	queries = append(queries,
		mustAggQuery(t, "SELECT w, COUNT(*) AS n, SUM(v) AS s FROM t JOIN u ON g = g2 GROUP BY w"),
		// A new v makes a new group; an int v times 5·10^18 wraps where a
		// float v does not, so a 1 and a 1.0 the delta cancels differ here.
		mustAggQuery(t, "SELECT v, COUNT(*) AS n FROM t GROUP BY v"),
		mustAggQuery(t, "SELECT g, SUM(v * 5000000000000000000) AS s FROM t GROUP BY g"))
	type shape struct {
		name, slotted string
		e             *Engine
		bindings      func(tpl *Template) []types.Value
	}
	var shapes []shape
	// An int column that the slotted statement scales by 1.5: a band
	// table whose versions sit on different lanes.
	mixed := bandShape{"mixed-lanes", "UPDATE t SET v = v * 1.5 WHERE k >= 10", "UPDATE t SET v = v * 1.5 WHERE k >= $p", 0}
	for _, sh := range append(bandShapes[:len(bandShapes):len(bandShapes)], mixed) {
		e := bandEngineOn(t, sh, bandRowsWithU())
		shapes = append(shapes, shape{sh.name, sh.slotted, e, func(tpl *Template) []types.Value {
			return append(bandBindings(t, e, sh, tpl.art.Load().slot.bound), offOrder[:2]...)
		}})
	}
	setE := bandEngineOn(t, bandShapes[0], bandRowsWithU())
	shapes = append(shapes, shape{"set-slot", setSlotShape, setE, func(*Template) []types.Value {
		return []types.Value{types.Int(0), types.Int(1), types.Int(-3), types.Int(100), types.Int(1 << 40), types.Float(0), types.Float(0.5), types.Float(1), types.Float(-2.25), types.Null()}
	}})
	fallbacks := map[string]int64{}
	var provisioned int64
	for _, sh := range shapes {
		mods := []history.Modification{history.Replace{Pos: 1, Stmt: mustStmt(t, sh.slotted)}}
		for _, opts := range []Options{DefaultOptions(), {ProgramSlicing: true, DataSlicing: true, Executor: ExecInterpreter}} {
			label := fmt.Sprintf("%s %s", sh.name, normalizeExecutor(opts.Executor))
			sess := sh.e.NewSession()
			tpl, err := sess.CompileTemplate(mods, opts)
			if err != nil {
				t.Fatalf("%s: compile: %v", label, err)
			}
			bindings := sh.bindings(tpl)
			for _, v := range bindings {
				b := map[string]types.Value{"p": v}
				_, gotReps, err := tpl.EvalAggregates(b, queries)
				if err != nil {
					t.Fatalf("%s binding %s: %v", label, v, err)
				}
				anchor := anchorOptions(opts, b)
				anchor.Executor = opts.Executor
				_, wantReps, _, err := sh.e.WhatIfAggregates(tpl.SubstitutedMods(b), queries, anchor)
				if err != nil {
					t.Fatalf("%s binding %s: fresh what-if: %v", label, v, err)
				}
				_, naiveReps, _, err := sess.NaiveAggregatesCtx(context.Background(), tpl.SubstitutedMods(b), queries)
				if err != nil {
					t.Fatalf("%s binding %s: Alg. 1: %v", label, v, err)
				}
				if g, w, n := reportsJSON(t, gotReps), reportsJSON(t, wantReps), reportsJSON(t, naiveReps); g != w || g != n {
					t.Fatalf("%s binding %s: reports differ\ngot   %s\nfresh %s\nAlg.1 %s", label, v, g, w, n)
				}
			}
			st := tpl.Stats()
			n := st.Reports.Provisioned
			for why, c := range st.ReportFallbacks {
				fallbacks[why] += c
				n += c
			}
			if want := int64(len(bindings) * len(queries)); n != want {
				t.Fatalf("%s: %d reports provisioned and %v fell back, want %d in all", label, st.Reports.Provisioned, st.ReportFallbacks, want)
			}
			provisioned += st.Reports.Provisioned
		}
	}
	t.Logf("%d reports provisioned, fallbacks %v", provisioned, fallbacks)
	if provisioned == 0 || fallbacks["min or max"] == 0 || fallbacks["new group"] == 0 || fallbacks["mixed lanes"] == 0 {
		t.Fatalf("%d reports provisioned, fallbacks %v: want some of each, with min or max, new group and mixed lanes", provisioned, fallbacks)
	}
}

// TestTemplateReportFoldErrorFallsBack: a band table whose new versions
// hold a row the report's γ cannot fold — a division by zero that only
// one hypothetical version makes — has no prefix states for the report,
// so its side's bindings report through the merged route, counted as a
// "fold error": a band that leaves that row out reports what a fresh
// what-if reports, and one that holds it fails as the fresh what-if
// does.
func TestTemplateReportFoldErrorFallsBack(t *testing.T) {
	r := storage.NewRelation(schema.New("t", schema.Col("k", types.KindInt), schema.Col("v", types.KindInt)))
	for k := int64(1); k <= 10; k++ {
		v := int64(2)
		if k == 3 {
			v = 1
		}
		r.Add(schema.Tuple{types.Int(k), types.Int(v)})
	}
	db := storage.NewDatabase()
	db.AddRelation(r)
	e := New(storage.NewVersioned(db))
	if _, err := e.Append(mustStmt(t, "UPDATE t SET v = v - 1 WHERE k >= 8")); err != nil {
		t.Fatal(err)
	}
	tpl, err := e.CompileTemplate([]history.Modification{history.Replace{Pos: 0, Stmt: mustStmt(t, "UPDATE t SET v = v - 1 WHERE k >= $p")}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := []AggregateQuery{mustAggQuery(t, "SELECT SUM(10 / v) AS s, COUNT(*) AS n FROM t")}
	for _, p := range []int64{6, 7, 9, 2} {
		b := map[string]types.Value{"p": types.Int(p)}
		_, got, gotErr := tpl.EvalAggregates(b, queries)
		_, want, _, wantErr := e.WhatIfAggregates(tpl.SubstitutedMods(b), queries, DefaultOptions())
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("p=%d: template error %v, fresh what-if error %v", p, gotErr, wantErr)
		}
		if g, w := reportsJSON(t, got), reportsJSON(t, want); g != w {
			t.Fatalf("p=%d: reports differ\ngot   %s\nfresh %s", p, g, w)
		}
		if (p == 2) != (gotErr != nil) {
			t.Fatalf("p=%d: error %v", p, gotErr)
		}
	}
	if st := tpl.Stats(); st.ReportFallbacks["fold error"] != 3 || st.Reports.Provisioned != 1 {
		t.Fatalf("reports %+v, fallbacks %v: want p=6, 7 and 2 to fall back for a fold error and p=9 provisioned", st.Reports, st.ReportFallbacks)
	}
}

// TestTemplatePlanReportMixedLanes: an executed-plan binding whose
// modified side sits on a float lane where its original side sits on an
// int one, and whose delta cancels an int 3 against a float 3.0, has
// fewer modified rows than Minus ∪ Plus rows, and would merge them
// against the original side's state; but that counts the 3.0 in and the
// 3 out, and an int times 5·10^18 wraps where a float does not. So it
// folds Minus and Plus instead, counted as "mixed lanes", and its report
// is a fresh what-if's.
func TestTemplatePlanReportMixedLanes(t *testing.T) {
	r := storage.NewRelation(schema.New("t", schema.Col("g", types.KindString), schema.Col("v", types.KindInt)))
	for _, v := range []int64{1, 2, 100, 200, 300, 400} {
		r.Add(schema.Tuple{types.String("a"), types.Int(v)})
	}
	db := storage.NewDatabase()
	db.AddRelation(r)
	e := New(storage.NewVersioned(db))
	if _, err := e.Append(mustStmt(t, "UPDATE t SET v = v + 1 WHERE v >= 1")); err != nil {
		t.Fatal(err)
	}
	tpl, err := e.CompileTemplate([]history.Modification{history.Replace{Pos: 0, Stmt: mustStmt(t, "UPDATE t SET v = v + $p WHERE v >= 1")}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := []AggregateQuery{mustAggQuery(t, "SELECT g, SUM(v * 5000000000000000000) AS s, COUNT(*) AS n FROM t GROUP BY g")}
	b := map[string]types.Value{"p": types.Float(2)}
	d, got, err := tpl.EvalAggregates(b, queries)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _, err := e.WhatIfAggregates(tpl.SubstitutedMods(b), queries, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := reportsJSON(t, got), reportsJSON(t, want); g != w {
		t.Fatalf("reports differ\ngot   %s\nfresh %s", g, w)
	}
	if n := d["t"].Size(); n != 10 {
		t.Fatalf("delta of %d rows, want 10: %v", n, d["t"])
	}
	if st := tpl.Stats(); st.Reports.Merged != 1 || st.Reports.Provisioned != 0 || st.ReportFallbacks["mixed lanes"] != 1 {
		t.Fatalf("reports %+v, fallbacks %v: want the report merged, falling back for mixed lanes", st.Reports, st.ReportFallbacks)
	}
}

// TestTemplateReportStatesHighCardinality: a report grouped by a unique
// column gives every band-table entry its own group, so prefix states
// one every √n entries would hold ≈ n^1.5/2 groups per side; spaced as
// far apart as the groups they hold, each side's states hold at most 2n.
// Every binding's report is still provisioned and equals a fresh
// what-if's byte for byte.
func TestTemplateReportStatesHighCardinality(t *testing.T) {
	const rows = 600
	r := storage.NewRelation(schema.New("t", schema.Col("k", types.KindInt), schema.Col("id", types.KindInt), schema.Col("v", types.KindInt)))
	for i := int64(0); i < rows; i++ {
		r.Add(schema.Tuple{types.Int(i), types.Int(i), types.Int(i % 7)})
	}
	db := storage.NewDatabase()
	db.AddRelation(r)
	e := New(storage.NewVersioned(db))
	for _, src := range []string{"UPDATE t SET v = v + 1 WHERE k >= 300", "UPDATE t SET v = v * 2 WHERE k < 100"} {
		if _, err := e.Append(mustStmt(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	tpl, err := e.CompileTemplate([]history.Modification{history.Replace{Pos: 0, Stmt: mustStmt(t, "UPDATE t SET v = v + 1 WHERE k >= $p")}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := []AggregateQuery{mustAggQuery(t, "SELECT id, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY id")}
	cuts := []int64{-5, 10, 150, 299, 301, 450, 598, 1000}
	for _, p := range cuts {
		b := map[string]types.Value{"p": types.Int(p)}
		_, got, err := tpl.EvalAggregates(b, queries)
		if err != nil {
			t.Fatal(err)
		}
		_, want, _, err := e.WhatIfAggregates(tpl.SubstitutedMods(b), queries, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if g, w := reportsJSON(t, got), reportsJSON(t, want); g != w {
			t.Fatalf("p=%d: reports differ\ngot   %s\nfresh %s", p, g, w)
		}
	}
	if st := tpl.Stats(); st.Reports.Provisioned != int64(len(cuts)) {
		t.Fatalf("reports %+v, fallbacks %v: want all %d provisioned", st.Reports, st.ReportFallbacks, len(cuts))
	}
	art := tpl.art.Load()
	for side := range art.tables {
		bt, ok := art.tables[side].Load()
		if !ok {
			t.Fatalf("side %d: no band table", side)
		}
		n := len(bt.ents)
		bt.states.Range(func(_ string, bs *bandStates) {
			for _, ps := range []prefixStates{bs.old, bs.new} {
				groups := 0
				for _, st := range ps.st {
					groups += st.Len()
				}
				if groups > 2*n || len(ps.st) < 3 {
					t.Fatalf("side %d: %d states hold %d groups over %d entries, want at least 3 and at most %d groups", side, len(ps.st), groups, n, 2*n)
				}
			}
		})
	}
}
