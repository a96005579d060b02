package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// templateWorkload builds a small taxi workload and an engine over it.
func templateWorkload(t *testing.T, rows, updates int, seed int64) (*workload.Workload, *Engine) {
	t.Helper()
	ds := workload.Taxi(rows, seed)
	w, err := workload.Generate(ds, workload.Config{
		Updates: updates, Mods: 1, DependentPct: 25, AffectedPct: 10, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	return w, New(vdb)
}

// paramMods rebuilds the workload's modification with the threshold as
// a $cut parameter slot.
func paramMods(w *workload.Workload) []history.Modification {
	base := w.Mods[0].(history.Replace)
	upd := base.Stmt.(*history.Update)
	st := &history.Update{
		Rel:   upd.Rel,
		Set:   upd.Set,
		Where: expr.Ge(expr.Column(w.Dataset.SelAttr), expr.Parameter("cut")),
	}
	return []history.Modification{history.Replace{Pos: base.Pos, Stmt: st}}
}

// requireSetsEqual fails unless the two delta sets are identical:
// same relations, same canonical minus/plus lists.
func requireSetsEqual(t *testing.T, label string, got, want delta.Set) {
	t.Helper()
	for rel, d := range want {
		g := got[rel]
		if g == nil {
			t.Fatalf("%s: missing delta for %s", label, rel)
		}
		if !g.Equal(d) {
			t.Fatalf("%s: delta for %s differs\nwant (%d tuples):\n%s\ngot (%d tuples):\n%s",
				label, rel, d.Size(), clipDelta(d.String()), g.Size(), clipDelta(g.String()))
		}
	}
	for rel := range got {
		if want[rel] == nil {
			t.Fatalf("%s: unexpected delta for %s", label, rel)
		}
	}
}

// templateVariants are the reenactment variants a template compiles
// under; the differentials run each.
var templateVariants = []Variant{VariantR, VariantRPS, VariantRDS, VariantRFull}

// evalPlan answers binding through the executed plan of tpl's current
// artifact, also where a band table answers it in Eval: the band
// tables' oracle.
func evalPlan(t *testing.T, tpl *Template, binding map[string]types.Value) delta.Set {
	t.Helper()
	art := tpl.art.Load()
	ev := tpl.e.newEvaluator(context.Background(), tpl.opts)
	body, err := art.body(ev)
	if err != nil {
		t.Fatalf("plan of %v: %v", binding, err)
	}
	out := delta.Set{}
	for rel, d := range body.static {
		out[rel] = d
	}
	for i := range body.rels {
		tr := &body.rels[i]
		p, _, err := tr.eval(ev, art, tpl.shared.snaps, binding, false)
		if err != nil {
			t.Fatalf("executed plan of %v: %v", binding, err)
		}
		out[tr.rel] = p.d
	}
	return out
}

// requireBindingAgrees evaluates one binding and requires its delta to
// equal the executed plan's and a fresh what-if's under anchor.
func requireBindingAgrees(t *testing.T, e *Engine, tpl *Template, anchor Options, binding map[string]types.Value, label string) {
	t.Helper()
	got, err := tpl.Eval(binding)
	if err != nil {
		t.Fatalf("%s: eval: %v", label, err)
	}
	want, _, err := e.WhatIf(tpl.SubstitutedMods(binding), anchor)
	if err != nil {
		t.Fatalf("%s: fresh what-if: %v", label, err)
	}
	requireSetsEqual(t, label, got, want)
	requireSetsEqual(t, label+" (executed plan)", evalPlan(t, tpl, binding), want)
}

// TestTemplateMatchesWhatIf pins the differential contract: for every
// binding and variant, Template.Eval equals a fresh WhatIf over the
// modifications with the binding's constants substituted, and so does
// its executed plan. NULL bindings are anchored against the no-slicing
// variant (a NULL literal in a condition is outside the solver's
// domain, so a fresh sliced WhatIf rejects it — the template, having
// solved with the slot symbolic, still answers; variant agreement makes
// variant R's delta an equal ground truth).
func TestTemplateMatchesWhatIf(t *testing.T) {
	w, e := templateWorkload(t, 3000, 10, 3)
	mods := paramMods(w)
	cuts := []types.Value{
		types.Int(9100), types.Int(9000), types.Int(8500), types.Int(0), types.Int(workload.SelRange + 50),
		types.Int(5500), types.Float(8999.5),
		// 2^53 boundary: past exact float integer representation.
		types.Int(1 << 53), types.Int(1<<53 + 1), types.Int(-(1 << 53)),
	}
	for _, v := range templateVariants {
		opts := OptionsFor(v)
		tpl, err := e.CompileTemplate(mods, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := tpl.Params(); got["cut"] != "numeric" {
			t.Fatalf("%s: Params() = %v, want cut:numeric", v, got)
		}
		for i, cut := range cuts {
			requireBindingAgrees(t, e, tpl, opts, map[string]types.Value{"cut": cut}, fmt.Sprintf("%s binding %d (%s)", v, i, cut))
		}

		// NULL binds any slot; sel >= NULL selects nothing, so the slice is
		// the historical condition's.
		requireBindingAgrees(t, e, tpl, OptionsFor(VariantR), map[string]types.Value{"cut": types.Null()}, string(v)+" NULL binding")
	}
}

// templateShape is one randomized-differential template: its
// modifications, its slots, a narrow and a wide binding, and how to
// draw random ones.
type templateShape struct {
	name   string
	mods   []history.Modification
	params []string
	// narrow and wide are bindings whose slices are well below and above
	// the relation's size; nil when no condition carries a slot.
	narrow, wide map[string]types.Value
	random       func(rng *rand.Rand) types.Value
}

// sliceShapes builds, over a hand-made history, the shapes whose slots
// reach the slicing filters by every path: a slotted DELETE (its filter
// is the NULL-inclusive θ ∨ θ IS NULL), two slotted modifications where
// the later one's filter is pushed down through the earlier one's
// slotted SET of the selection column, and a slotted INSERT … SELECT
// beside a slotted UPDATE of its target.
func sliceShapes(t *testing.T) (*Engine, []templateShape) {
	t.Helper()
	ds := workload.Taxi(3000, 5)
	db := ds.Database()
	archive := storage.NewRelation(schema.New("archive", ds.Rel.Schema.Columns...))
	for _, tp := range ds.Rel.Tuples[:2000] {
		archive.Add(tp)
	}
	db.AddRelation(archive)
	e := New(storage.NewVersioned(db))
	if _, err := e.Append(
		mustStmt(t, "UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= 9000"),
		mustStmt(t, "UPDATE trips SET trip_seconds = trip_seconds + 100 WHERE trip_miles >= 8000"),
		mustStmt(t, "DELETE FROM trips WHERE trip_seconds >= 9900"),
		mustStmt(t, "UPDATE trips SET fare = fare * 2 WHERE trip_seconds >= 9500"),
		mustStmt(t, "INSERT INTO archive SELECT * FROM trips WHERE trip_seconds >= 9950"),
		mustStmt(t, "UPDATE archive SET tips = tips + 5 WHERE trip_seconds >= 9000"),
		mustStmt(t, "UPDATE trips SET tolls = tolls + 1 WHERE trip_seconds < 500"),
	); err != nil {
		t.Fatal(err)
	}
	num := func(rng *rand.Rand) types.Value {
		if rng.Intn(2) == 0 {
			return types.Int(int64(rng.Intn(workload.SelRange)))
		}
		return types.Float(float64(rng.Intn(workload.SelRange)) + 0.5)
	}
	replace := func(pos int, src string) history.Modification {
		return history.Replace{Pos: pos, Stmt: mustStmt(t, src)}
	}
	ints := func(kv ...any) map[string]types.Value {
		out := map[string]types.Value{}
		for i := 0; i < len(kv); i += 2 {
			out[kv[i].(string)] = types.Int(int64(kv[i+1].(int)))
		}
		return out
	}
	return e, []templateShape{
		{
			name:   "slotted-delete",
			mods:   []history.Modification{replace(2, "DELETE FROM trips WHERE trip_seconds >= $a")},
			params: []string{"a"},
			narrow: ints("a", 9950), wide: ints("a", 0),
			random: num,
		},
		{
			name: "pushed-through-slotted-set",
			mods: []history.Modification{
				replace(0, "UPDATE trips SET trip_seconds = trip_seconds - $d, tips = tips + 1 WHERE trip_seconds >= $a"),
				replace(3, "UPDATE trips SET fare = fare * 2 WHERE trip_seconds >= $c"),
			},
			params: []string{"a", "c", "d"},
			narrow: ints("a", 9800, "c", 9700, "d", 50), wide: ints("a", 0, "c", 0, "d", 3000),
			random: num,
		},
		{
			name: "insert-select",
			mods: []history.Modification{
				replace(4, "INSERT INTO archive SELECT * FROM trips WHERE trip_seconds >= $e"),
				replace(5, "UPDATE archive SET tips = tips + 5 WHERE trip_seconds >= $f"),
			},
			params: []string{"e", "f"},
			narrow: ints("e", 9900, "f", 9900), wide: ints("e", 0, "f", 0),
			random: num,
		},
	}
}

// templateKindEdges are binding values at the edges of the kernels a
// template's compiled programs specialize per run: an int and its float
// twin, ±2^53 and 2^53+1, −0.0, values below and above every cell of
// the Taxi columns (inside and beyond the slicing solver's box), and
// NULL.
var templateKindEdges = []types.Value{
	types.Int(9500), types.Float(9500), types.Int(1 << 53), types.Int(-(1 << 53)), types.Int(1<<53 + 1),
	types.Float(math.Copysign(0, -1)), types.Int(-1), types.Float(1e5), types.Float(1e7), types.Int(-1e7),
	types.Null(),
}

// solverBox is the interval the slicing solver bounds a free numeric
// variable to (compile's defaultBound).
const solverBox = 1e6

// beyondBox reports whether v is a number outside the solver's box.
func beyondBox(v types.Value) bool {
	return v.IsNumeric() && math.Abs(v.AsFloat()) > solverBox
}

// anchorOptions is what a binding's fresh what-if runs under: opts, or
// variant R when a slot is NULL or a number beyond the solver's box. A
// fresh program-sliced what-if slices unsoundly once a SET moves a
// value past the box (ROADMAP, Known), so it cannot anchor such a
// binding; R runs no solver.
func anchorOptions(opts Options, binding map[string]types.Value) Options {
	for _, v := range binding {
		if v.IsNull() || beyondBox(v) {
			return OptionsFor(VariantR)
		}
	}
	return opts
}

// TestTemplateRandomizedDifferential sweeps template shapes (slots in
// comparisons, conjunctions, arithmetic, SET clauses, DELETE and
// INSERT … SELECT conditions, push-down through a slotted SET) and
// bindings — narrow, wide, random, kind edges and NULL — under every
// variant: each delta equals the executed plan's and a fresh what-if's.
// The kind edges rotate through every slot of every
// shape, and each edge beyond the solver's box also takes every slot of
// every shape in turn, the other slots at the shape's narrow values; a
// binding with a NULL or such a value in some slot is
// anchored on variant R (anchorOptions).
func TestTemplateRandomizedDifferential(t *testing.T) {
	w, we := templateWorkload(t, 3000, 8, 11)
	base := w.Mods[0].(history.Replace)
	upd := base.Stmt.(*history.Update)
	sel := expr.Column(w.Dataset.SelAttr)
	sel2 := expr.Column(w.Dataset.SelAttr2)
	payload := w.Dataset.Payload[0]
	update := func(where expr.Expr, set []history.SetClause) []history.Modification {
		return []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{Rel: upd.Rel, Set: set, Where: where}}}
	}
	bump := []history.SetClause{{Col: payload, E: expr.Add(expr.Column(payload), expr.Parameter("v"))}}
	num := func(rng *rand.Rand) types.Value {
		if rng.Intn(2) == 0 {
			return types.Int(int64(rng.Intn(2 * workload.SelRange)))
		}
		return types.Float(float64(rng.Intn(workload.SelRange)) + 0.25)
	}
	b := func(kv ...any) map[string]types.Value {
		out := map[string]types.Value{}
		for i := 0; i < len(kv); i += 2 {
			out[kv[i].(string)] = types.Int(int64(kv[i+1].(int)))
		}
		return out
	}
	taxiShapes := []templateShape{
		{name: "cmp", mods: update(expr.Ge(sel, expr.Parameter("a")), upd.Set), params: []string{"a"},
			narrow: b("a", 9500), wide: b("a", 100), random: num},
		{name: "band", mods: update(expr.AndOf(expr.Ge(sel, expr.Parameter("a")), expr.Lt(sel, expr.Parameter("b"))), upd.Set),
			params: []string{"a", "b"}, narrow: b("a", 9200, "b", 9300), wide: b("a", 0, "b", 20000), random: num},
		{name: "or-two-attrs", mods: update(expr.OrOf(expr.Ge(sel, expr.Parameter("a")), expr.Ge(sel2, expr.Parameter("b"))), upd.Set),
			params: []string{"a", "b"}, narrow: b("a", 9500, "b", 9900), wide: b("a", 0, "b", 0), random: num},
		{name: "arith", mods: update(expr.Ge(expr.Add(sel, expr.Parameter("a")), expr.IntConst(9000)), upd.Set),
			params: []string{"a"}, narrow: b("a", -500), wide: b("a", 9000), random: num},
		{name: "set-slot", mods: update(expr.Ge(sel, expr.IntConst(9050)), bump), params: []string{"v"}, random: num},
		{name: "both", mods: update(expr.Ge(sel, expr.Parameter("a")), bump), params: []string{"a", "v"},
			narrow: b("a", 9600, "v", 3), wide: b("a", 10, "v", 3), random: num},
	}
	se, handShapes := sliceShapes(t)

	rng := rand.New(rand.NewSource(42))
	edge := 0
	for _, group := range []struct {
		e      *Engine
		shapes []templateShape
	}{{we, taxiShapes}, {se, handShapes}} {
		for _, shape := range group.shapes {
			for _, v := range templateVariants {
				opts := OptionsFor(v)
				tpl, err := group.e.CompileTemplate(shape.mods, opts)
				if err != nil {
					t.Fatalf("%s %s: compile: %v", shape.name, v, err)
				}
				var bindings []map[string]types.Value
				if shape.narrow != nil {
					bindings = append(bindings, shape.narrow, shape.wide)
				}
				for trial := 0; trial < 3; trial++ {
					binding := map[string]types.Value{}
					for _, p := range shape.params {
						binding[p] = shape.random(rng)
					}
					bindings = append(bindings, binding)
				}
				for trial := 0; trial < 2; trial++ {
					binding := map[string]types.Value{}
					for _, p := range shape.params {
						binding[p] = templateKindEdges[edge%len(templateKindEdges)]
						edge++
					}
					bindings = append(bindings, binding)
				}
				for _, val := range templateKindEdges {
					if !beyondBox(val) {
						continue
					}
					for _, p := range shape.params {
						binding := maps.Clone(shape.narrow)
						if binding == nil {
							binding = map[string]types.Value{}
						}
						binding[p] = val
						bindings = append(bindings, binding)
					}
				}
				for i, binding := range bindings {
					label := fmt.Sprintf("%s %s binding %d %v", shape.name, v, i, binding)
					requireBindingAgrees(t, group.e, tpl, anchorOptions(opts, binding), binding, label)
				}
				// NULL in every slot, anchored on variant R.
				null := map[string]types.Value{}
				for _, p := range shape.params {
					null[p] = types.Null()
				}
				requireBindingAgrees(t, group.e, tpl, OptionsFor(VariantR), null, fmt.Sprintf("%s %s NULL binding", shape.name, v))
			}
		}
	}
}

// TestTemplateDataSlicing pins data slicing through template
// compilation: a SET-slot template and a condition-slot template both
// compile with their filters in (DataSlicing), and so does one whose
// SET slot leaks into a later statement's pushed-down filter; every
// binding's delta equals a fresh fully-sliced WhatIf. The condition-slot
// template used to compile with data slicing off.
func TestTemplateDataSlicing(t *testing.T) {
	w, e := templateWorkload(t, 3000, 10, 7)
	base := w.Mods[0].(history.Replace)
	upd := base.Stmt.(*history.Update)
	payload := w.Dataset.Payload[0]
	opts := OptionsFor(VariantRFull)

	setMods := []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
		Rel: upd.Rel,
		Set: []history.SetClause{{
			Col: payload,
			E:   expr.Add(expr.Column(payload), expr.Parameter("v")),
		}},
		Where: upd.Where,
	}}}
	tpl, err := e.CompileTemplate(setMods, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.Stats().DataSlicing {
		t.Fatal("SET-only template compiled without data slicing")
	}
	for _, v := range []types.Value{types.Int(0), types.Int(17), types.Float(-3.5)} {
		binding := map[string]types.Value{"v": v}
		got, err := tpl.Eval(binding)
		if err != nil {
			t.Fatalf("binding %s: %v", v, err)
		}
		want, _, err := e.WhatIf(tpl.SubstitutedMods(binding), opts)
		if err != nil {
			t.Fatalf("fresh what-if, binding %s: %v", v, err)
		}
		requireSetsEqual(t, fmt.Sprintf("set-only binding %s", v), got, want)
	}

	// A slot in a condition lands in its relation's original-side
	// filter, so the relation is planned without filters (outside the
	// range class, whose bindings band tables answer instead).
	cond, err := e.CompileTemplate(unrangedParamMods(w), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cond.Stats().DataSlicing {
		t.Fatal("condition-slot template compiled without data slicing")
	}
	for _, cut := range []int64{9400, 50} {
		requireBindingAgrees(t, e, cond, opts, map[string]types.Value{"cut": types.Int(cut)}, fmt.Sprintf("cut %d", cut))
	}

	// Leak path: a later statement's condition reads the column the
	// parameterized SET writes, so push-down substitutes $v into the
	// modified-side filter, which is substituted per binding.
	leakMods := append(append([]history.Modification{}, setMods...),
		history.InsertStmt{Pos: base.Pos + 1, Stmt: &history.Update{
			Rel:   upd.Rel,
			Set:   upd.Set,
			Where: expr.Ge(expr.Column(payload), expr.IntConst(100)),
		}})
	leak, err := e.CompileTemplate(leakMods, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !leak.Stats().DataSlicing {
		t.Fatal("leak-path template compiled without data slicing")
	}
	for _, v := range []types.Value{types.Int(5), types.Int(250)} {
		requireBindingAgrees(t, e, leak, opts, map[string]types.Value{"v": v}, fmt.Sprintf("leak binding %s", v))
	}
}

// TestTemplateParamFree pins the degenerate case: a template without
// slots precomputes everything, and Eval with an empty binding returns
// the static delta.
func TestTemplateParamFree(t *testing.T) {
	w, e := templateWorkload(t, 600, 8, 7)
	opts := OptionsFor(VariantRPS)
	tpl, err := e.CompileTemplate(w.Mods, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := tpl.Stats()
	if len(st.DynamicRelations) != 0 {
		t.Fatalf("param-free template has dynamic relations %v", st.DynamicRelations)
	}
	if st.BindingDependent != 0 {
		t.Fatalf("param-free template reports %d binding-dependent statements", st.BindingDependent)
	}
	got, err := tpl.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.WhatIf(w.Mods, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSetsEqual(t, "param-free", got, want)
}

// TestTemplateBindingValidation pins the binding contract: exact
// parameter coverage and class agreement, checked before evaluation.
func TestTemplateBindingValidation(t *testing.T) {
	w, e := templateWorkload(t, 400, 6, 19)
	tpl, err := e.CompileTemplate(paramMods(w), OptionsFor(VariantRPS))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		binding map[string]types.Value
		wantErr string
	}{
		{"missing", map[string]types.Value{}, "missing parameter $cut"},
		{"extra", map[string]types.Value{"cut": types.Int(9000), "bogus": types.Int(1)}, "unknown parameter $bogus"},
		{"kind", map[string]types.Value{"cut": types.String("high")}, "wants a numeric value"},
	}
	for _, tc := range cases {
		if _, err := tpl.Eval(tc.binding); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	// NULL always binds.
	if _, err := tpl.Eval(map[string]types.Value{"cut": types.Null()}); err != nil {
		t.Errorf("NULL binding rejected: %v", err)
	}
}

// TestTemplateConflictingParamClasses pins compile-time inference: one
// slot used as both a number and a string fails compilation.
func TestTemplateConflictingParamClasses(t *testing.T) {
	w, e := templateWorkload(t, 300, 5, 23)
	base := w.Mods[0].(history.Replace)
	upd := base.Stmt.(*history.Update)
	st := &history.Update{
		Rel: upd.Rel,
		Set: upd.Set,
		Where: expr.AndOf(
			expr.Ge(expr.Column(w.Dataset.SelAttr), expr.Parameter("p")),
			expr.Eq(expr.Column(w.Dataset.GroupBy), expr.Parameter("p")),
		),
	}
	mods := []history.Modification{history.Replace{Pos: base.Pos, Stmt: st}}
	if _, err := e.CompileTemplate(mods, OptionsFor(VariantRPS)); err == nil ||
		!strings.Contains(err.Error(), "used as both") {
		t.Fatalf("conflicting classes compiled: err = %v", err)
	}
}

// TestTemplateRecompileOnAppend pins the append-invalidation contract:
// after the engine's history advances, the next Eval transparently
// recompiles against the new version and still matches a fresh WhatIf.
func TestTemplateRecompileOnAppend(t *testing.T) {
	w, e := templateWorkload(t, 500, 8, 31)
	mods := paramMods(w)
	opts := OptionsFor(VariantRPS)
	tpl, err := e.CompileTemplate(mods, opts)
	if err != nil {
		t.Fatal(err)
	}
	binding := map[string]types.Value{"cut": types.Int(9000)}
	if _, err := tpl.Eval(binding); err != nil {
		t.Fatal(err)
	}
	before := tpl.Version()

	// Advance the history with an update that moves real tuples.
	upd := &history.Update{
		Rel:   w.Dataset.Rel.Schema.Relation,
		Set:   []history.SetClause{{Col: w.Dataset.Payload[0], E: expr.Add(expr.Column(w.Dataset.Payload[0]), expr.IntConst(3))}},
		Where: expr.Ge(expr.Column(w.Dataset.SelAttr), expr.IntConst(8000)),
	}
	if _, err := e.Append(upd); err != nil {
		t.Fatal(err)
	}

	got, err := tpl.Eval(binding)
	if err != nil {
		t.Fatal(err)
	}
	if v := tpl.Version(); v != before+1 {
		t.Fatalf("template version = %d after append, want %d", v, before+1)
	}
	if r := tpl.Stats().Recompiles; r != 1 {
		t.Fatalf("Recompiles = %d, want 1", r)
	}
	want, _, err := e.WhatIf(tpl.SubstitutedMods(binding), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSetsEqual(t, "post-append", got, want)
}

// TestSessionRetainsNoTemplate: a template is owned by whoever
// compiled it. Once its caller drops it, nothing the session keeps
// holds it, so the collector frees it while the session lives on.
func TestSessionRetainsNoTemplate(t *testing.T) {
	w, e := templateWorkload(t, 300, 6, 37)
	s := e.NewSession()
	freed := make(chan struct{})
	func() {
		tpl, err := s.CompileTemplate(paramMods(w), OptionsFor(VariantRPS))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(tpl, func(*Template) { close(freed) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(s)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the session still holds a template its caller dropped")
}

// TestTemplateConcurrentEval stresses one template from many
// goroutines, with a history append landing mid-flight (exercises the
// transparent recompile under contention; run with -race). Every answer
// must equal a fresh what-if over its substituted modifications; the
// appended statement is a no-op, so that answer holds at every version.
// All goroutines run the same compiled programs under their own
// bindings at once: a binding that reached another eval's run fails
// here.
func TestTemplateConcurrentEval(t *testing.T) {
	w, e := templateWorkload(t, 400, 6, 43)
	opts := OptionsFor(VariantRPS)
	tpl, err := e.CompileTemplate(paramMods(w), opts)
	if err != nil {
		t.Fatal(err)
	}
	binding := func(g, i int) map[string]types.Value {
		return map[string]types.Value{"cut": types.Int(int64(8600 + 50*g + i))}
	}
	want := map[int64]delta.Set{}
	for g := 0; g < 8; g++ {
		for i := 0; i < 6; i++ {
			b := binding(g, i)
			d, _, err := e.WhatIf(tpl.SubstitutedMods(b), opts)
			if err != nil {
				t.Fatal(err)
			}
			want[b["cut"].AsInt()] = d
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				b := binding(g, i)
				got, err := tpl.Eval(b)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
				sameDeltaSet(t, fmt.Sprintf("goroutine %d iter %d (cut %s)", g, i, b["cut"]), got, want[b["cut"].AsInt()])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Append(history.NoOpFor(w.History[0])); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := tpl.Stats().Evals; got != 48 {
		t.Errorf("Evals = %d, want 48", got)
	}
}

// TestTemplateEvalBatch pins batch evaluation: order-preserving
// results, each matching a fresh WhatIf.
func TestTemplateEvalBatch(t *testing.T) {
	w, e := templateWorkload(t, 500, 8, 47)
	opts := OptionsFor(VariantRPS)
	tpl, err := e.CompileTemplate(paramMods(w), opts)
	if err != nil {
		t.Fatal(err)
	}
	bindings := make([]map[string]types.Value, 12)
	for i := range bindings {
		bindings[i] = map[string]types.Value{"cut": types.Int(int64(8700 + 40*i))}
	}
	results, err := tpl.EvalBatch(bindings, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(bindings) {
		t.Fatalf("got %d results, want %d", len(results), len(bindings))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("binding %d: %v", i, r.Err)
		}
		if r.Binding != i {
			t.Fatalf("result %d carries binding index %d", i, r.Binding)
		}
		want, _, err := e.WhatIf(tpl.SubstitutedMods(bindings[i]), opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSetsEqual(t, fmt.Sprintf("batch binding %d", i), r.Delta, want)
	}
}

// TestTemplateSlicesBindingIndependently pins the slicing behavior of
// the one-time compile. A slot in a SET clause leaves the statement
// regions concrete, so the template slices exactly as hard as a fresh
// what-if would for any binding; a slot in the condition makes the
// hypothetical region symbolic, so every overlapping statement is
// conservatively kept (sound for all bindings). Both partition the
// kept statements into binding-(in)dependent.
func TestTemplateSlicesBindingIndependently(t *testing.T) {
	w, e := templateWorkload(t, 700, 10, 53)
	base := w.Mods[0].(history.Replace)
	upd := base.Stmt.(*history.Update)
	payload := w.Dataset.Payload[0]

	// Param in the SET clause: regions concrete, slicing bites.
	setMods := []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
		Rel: upd.Rel,
		Set: []history.SetClause{{
			Col: payload,
			E:   expr.Add(expr.Column(payload), expr.Parameter("v")),
		}},
		Where: upd.Where,
	}}}
	tpl, err := e.CompileTemplate(setMods, OptionsFor(VariantRPS))
	if err != nil {
		t.Fatal(err)
	}
	st := tpl.Stats()
	if st.KeptStatements >= st.TotalStatements {
		t.Errorf("set-slot template kept %d of %d statements: nothing sliced", st.KeptStatements, st.TotalStatements)
	}
	if st.BindingDependent == 0 {
		t.Errorf("modified statement carries $v but BindingDependent = 0 (stats: %+v)", st)
	}
	if st.BindingIndependent+st.BindingDependent != st.KeptStatements {
		t.Errorf("partition %d+%d does not cover %d kept statements",
			st.BindingIndependent, st.BindingDependent, st.KeptStatements)
	}
	if st.SolverTests == 0 {
		t.Error("no solver tests recorded at compile time")
	}

	// Param in the condition: symbolic region overlaps everything on
	// this workload, so all statements are (correctly) kept.
	tpl2, err := e.CompileTemplate(paramMods(w), OptionsFor(VariantRPS))
	if err != nil {
		t.Fatal(err)
	}
	st2 := tpl2.Stats()
	if st2.KeptStatements != st2.TotalStatements {
		t.Errorf("condition-slot template kept %d of %d: expected conservative keep-all on overlapping regions",
			st2.KeptStatements, st2.TotalStatements)
	}
	if st2.SolverTests == 0 {
		t.Error("condition-slot template recorded no solver tests")
	}
}

// TestTemplateSlottedFilterComparesTheRelation pins the one plan of a
// relation whose original-side slicing filter carries a $slot (the
// threshold of the modified UPDATE as $cut, written outside the range
// class so that the template executes its plan: unrangedParamMods):
// the relation is planned without filters, so every binding, narrow or
// wide, compares all |R| rows of its delta, and answers what a fresh
// what-if answers.
func TestTemplateSlottedFilterComparesTheRelation(t *testing.T) {
	w, e := templateWorkload(t, 3000, 20, 13)
	s := e.NewSession()
	tpl, err := s.CompileTemplate(unrangedParamMods(w), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.Stats().DataSlicing {
		t.Fatal("template compiled without data slicing")
	}
	snap, err := e.vdb.Version(w.Mods[0].(history.Replace).Pos)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := snap.Relation(w.Dataset.Rel.Schema.Relation)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{9900, 9500, 5000, 0} {
		b := map[string]types.Value{"cut": types.Int(cut)}
		before := s.Stats().DeltaRowsCompared
		got, err := tpl.Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		if n := int(s.Stats().DeltaRowsCompared - before); n != len(rel.Tuples) {
			t.Errorf("cut %d: compared %d rows, want all %d", cut, n, len(rel.Tuples))
		}
		requireFreshWhatIf(t, fmt.Sprintf("cut %d", cut), tpl, b, got)
	}
}

// TestTemplateWaitersHonorTheirDeadline: a caller that joins a slow
// recompile after an append waits only as long as its own deadline
// allows. The recompile it joined finishes for everyone else, and the
// next caller gets that artifact without a second recompile. The
// recompile has to outlast the join delay plus the deadline (50 ms),
// also on a faster machine. Solver outcomes survive the append, so the
// recompile re-plans with every earlier test answered by the memo and
// costs about half the cold compile: the 2 400-update history keeps it
// at a quarter of a second on 2 CPUs (the cold compile ≈ 0.55 s), five
// times what the waiter needs.
func TestTemplateWaitersHonorTheirDeadline(t *testing.T) {
	w, e := templateWorkload(t, 600, 2400, 91)
	mods := paramMods(w)
	opts := DefaultOptions()
	sess := e.NewSession()
	const joinAfter, deadline, prompt = 30 * time.Millisecond, 20 * time.Millisecond, 150 * time.Millisecond
	waitOut := func(label string, call func(ctx context.Context) error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		start := time.Now()
		err := call(ctx)
		if elapsed := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || elapsed > prompt {
			t.Fatalf("%s: waiter returned %v after %v, want DeadlineExceeded within %v", label, err, elapsed, prompt)
		}
	}

	tpl, err := sess.CompileTemplateCtx(context.Background(), mods, opts)
	if err != nil {
		t.Fatal(err)
	}

	upd := &history.Update{
		Rel:   w.Dataset.Rel.Schema.Relation,
		Set:   []history.SetClause{{Col: w.Dataset.Payload[0], E: expr.Add(expr.Column(w.Dataset.Payload[0]), expr.IntConst(3))}},
		Where: expr.Ge(expr.Column(w.Dataset.SelAttr), expr.IntConst(8000)),
	}
	if _, err := e.Append(upd); err != nil {
		t.Fatal(err)
	}
	binding := map[string]types.Value{"cut": types.Int(9000)}
	recompiled := make(chan error, 1)
	go func() {
		_, err := tpl.EvalCtx(context.Background(), binding)
		recompiled <- err
	}()
	time.Sleep(joinAfter)
	waitOut("recompile", func(ctx context.Context) error {
		_, err := tpl.EvalCtx(ctx, binding)
		return err
	})
	if err := <-recompiled; err != nil {
		t.Fatal(err)
	}
	got, err := tpl.EvalCtx(context.Background(), binding)
	if err != nil {
		t.Fatal(err)
	}
	if v, r := tpl.Version(), tpl.Stats().Recompiles; v != e.Version() || r != 1 {
		t.Fatalf("after the recompile: version %d (history %d), %d recompiles, want the history's and 1", v, e.Version(), r)
	}
	want, _, err := e.WhatIf(tpl.SubstitutedMods(binding), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSetsEqual(t, "post-append", got, want)
}
