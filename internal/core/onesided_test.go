package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// oneSidedEngine builds an engine over Taxi trips with a few NULL
// trip_seconds and fare cells, and a history whose statements touch
// both sides of every range bound the one-sided tests make a slot, move
// the slot's column (statement 6) and read what the slotted statements
// write (statement 5), so that a plan sliced at the wrong end of a
// range loses statements a binding depends on. extra statements follow
// those.
func oneSidedEngine(t *testing.T, extra ...string) *Engine {
	t.Helper()
	ds := workload.Taxi(1200, 17)
	for i := range ds.Rel.Tuples {
		switch {
		case i%97 == 0:
			ds.Rel.Tuples[i][3] = types.Null() // trip_seconds
		case i%89 == 0:
			ds.Rel.Tuples[i][5] = types.Null() // fare
		}
	}
	e := New(storage.NewVersioned(ds.Database()))
	var stmts []history.Statement
	for _, src := range []string{
		"UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= 5000",                                       // 0
		"UPDATE trips SET fare = fare + 3 WHERE trip_seconds < 2000",                                        // 1
		"UPDATE trips SET tolls = tolls + 1 WHERE trip_seconds >= 7000",                                     // 2
		"UPDATE trips SET extras = extras * 2 WHERE trip_seconds >= 3000 AND trip_seconds < 4000",           // 3
		"DELETE FROM trips WHERE trip_seconds >= 9500",                                                      // 4
		"UPDATE trips SET tips = tips * 2 WHERE tips >= 15",                                                 // 5
		"UPDATE trips SET trip_seconds = trip_seconds + 500 WHERE trip_miles < 1000",                        // 6
		"UPDATE trips SET fare = fare - 1 WHERE trip_seconds < 5000 AND trip_miles >= 5000",                 // 7
		"UPDATE trips SET tolls = 0 WHERE trip_seconds > 6000",                                              // 8
		"UPDATE trips SET extras = extras + 1 WHERE trip_seconds <= 4000",                                   // 9
		"UPDATE trips SET tips = tips + 2 WHERE trip_seconds < 3000 AND fare > 50",                          // 10
		"UPDATE trips SET fare = fare + 1 WHERE 6500 <= trip_seconds",                                       // 11
		"UPDATE trips SET tips = tips - 1 WHERE trip_miles >= 2000 AND trip_seconds >= 4500 AND fare < 150", // 12
		"UPDATE trips SET extras = 0 WHERE fare >= 120",                                                     // 13
		"UPDATE trips SET tolls = tolls + 2 WHERE trip_seconds = 5000",                                      // 14
		"UPDATE trips SET tips = tips + 3 WHERE trip_seconds >= 1000 AND trip_seconds < 8000",               // 15
		"UPDATE trips SET fare = fare * 2 WHERE trip_seconds >= 2500",                                       // 16
	} {
		stmts = append(stmts, mustStmt(t, src))
	}
	for _, src := range extra {
		stmts = append(stmts, mustStmt(t, src))
	}
	if _, err := e.Append(stmts...); err != nil {
		t.Fatal(err)
	}
	return e
}

// oneSidedShape is a range template of oneSidedEngine's history: the
// statement at pos with one bound made the slot $p.
type oneSidedShape struct {
	name  string
	pos   int
	src   string
	bound types.Value
	// rising: a larger binding selects fewer rows (> and ≥ with the
	// column on the left); delete: the slotted statement is a DELETE.
	rising, delete bool
}

var oneSidedShapes = []oneSidedShape{
	{name: "ge", pos: 0, src: "UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= $p", bound: types.Int(5000), rising: true},
	{name: "gt", pos: 8, src: "UPDATE trips SET tolls = 0 WHERE trip_seconds > $p", bound: types.Int(6000), rising: true},
	{name: "le", pos: 9, src: "UPDATE trips SET extras = extras + 1 WHERE trip_seconds <= $p", bound: types.Int(4000)},
	{name: "lt-beside-conjunct", pos: 10, src: "UPDATE trips SET tips = tips + 2 WHERE trip_seconds < $p AND fare > 50", bound: types.Int(3000)},
	{name: "swapped-le", pos: 11, src: "UPDATE trips SET fare = fare + 1 WHERE $p <= trip_seconds", bound: types.Int(6500), rising: true},
	{name: "between-conjuncts", pos: 12, src: "UPDATE trips SET tips = tips - 1 WHERE trip_miles >= 2000 AND trip_seconds >= $p AND fare < 150", bound: types.Int(4500), rising: true},
	{name: "delete", pos: 4, src: "DELETE FROM trips WHERE trip_seconds >= $p", bound: types.Int(9500), rising: true, delete: true},
	{name: "float-column", pos: 13, src: "UPDATE trips SET extras = 0 WHERE fare >= $p", bound: types.Int(120), rising: true},
}

// oneSidedBindings are the bindings every range template answers: the
// bound itself, ±1 and ±compile.Eps around it, a float half a unit off,
// random numbers on both sides, NULL, and bindings off the order (NaN,
// ±2^53, 2^53+1, ±Inf), which no side answers.
func oneSidedBindings(rng *rand.Rand, p0 types.Value) []types.Value {
	b := p0.AsFloat()
	out := []types.Value{
		p0, types.Float(b),
		types.Int(int64(b) + 1), types.Int(int64(b) - 1),
		types.Float(b + compile.Eps), types.Float(b - compile.Eps),
		types.Float(b + 0.5), types.Float(b - 0.5),
		types.Null(), types.Float(math.NaN()),
		types.Int(1 << 53), types.Int(-(1 << 53)), types.Int(1<<53 + 1), types.Float(1 << 53),
		types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
	}
	for i := 0; i < 2; i++ {
		out = append(out, types.Int(int64(rng.Intn(11000)-500)), types.Float(float64(rng.Intn(11000)-500)+0.25))
	}
	return out
}

// wantSide is the side a binding of shape must take, worked out from
// the shape alone: -1 for the fallback.
func (sh oneSidedShape) wantSide(v types.Value) int {
	switch {
	case v.IsNull() && sh.delete:
		return sideMore
	case v.IsNull():
		return sideFewer
	}
	f := v.AsFloat()
	if math.IsNaN(f) || math.Abs(f) >= 1<<53 {
		return -1
	}
	b := sh.bound.AsFloat()
	if f == b || (f > b) == sh.rising {
		return sideFewer
	}
	return sideMore
}

// freshAnswer is the delta a fresh what-if under anchor answers for
// mods, required to equal Alg. 1's.
func freshAnswer(t *testing.T, e *Engine, mods []history.Modification, anchor Options, label string) delta.Set {
	t.Helper()
	want, _, err := e.WhatIf(mods, anchor)
	if err != nil {
		t.Fatalf("%s: fresh what-if: %v", label, err)
	}
	naive, _, err := e.Naive(mods)
	if err != nil {
		t.Fatalf("%s: Alg. 1: %v", label, err)
	}
	for rel, d := range want {
		if !d.Equal(naive[rel]) {
			t.Fatalf("%s: fresh what-if's delta for %s differs from Alg. 1's (%d vs %d tuples)", label, rel, d.Size(), naive[rel].Size())
		}
	}
	return want
}

// requireTemplateAnswer requires binding's template answer, and under
// the vectorized executor its executed plan's, to equal want.
func requireTemplateAnswer(t *testing.T, tpl *Template, binding map[string]types.Value, want delta.Set, label string) {
	t.Helper()
	got, err := tpl.Eval(binding)
	if err != nil {
		t.Fatalf("%s: eval: %v", label, err)
	}
	requireSetsEqual(t, label, got, want)
	if tpl.opts.Executor == ExecInterpreter {
		return // the same plan, interpreted; the vectorized runs force it
	}
	requireSetsEqual(t, label+" (executed plan)", evalPlan(t, tpl, binding), want)
}

// TestTemplateOneSidedDifferential: a range template (one replaced
// UPDATE or DELETE whose one slot bounds a top-level WHERE conjunct
// col ⋈ $p) is sliced at the two ends of its slot's range, and each
// binding answers with the plan of its side of the original bound. For
// ≥ > ≤ <, the slot on either side of the comparison, beside other
// conjuncts, in a DELETE and against a float column, under both
// program-slicing variants and both executors, every binding — at the
// bound, ±1 and ±Eps around it, on both sides, NULL, NaN, an int slot
// bound to a float, and off the order — answers what a fresh what-if
// and Alg. 1 answer and takes the side (or the fallback) its value puts
// it on; a constant what-if just past the bound keeps no more
// statements than the FALSE side.
func TestTemplateOneSidedDifferential(t *testing.T) {
	e := oneSidedEngine(t)
	h, err := e.History()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	shapes := oneSidedShapes
	if testing.Short() {
		shapes = shapes[:4]
	}
	for _, sh := range shapes {
		mods := []history.Modification{history.Replace{Pos: sh.pos, Stmt: mustStmt(t, sh.src)}}
		if got := history.SubstParams(mustStmt(t, sh.src), map[string]types.Value{"p": sh.bound}); !sameStatement(got, h[sh.pos]) {
			t.Fatalf("%s: the template at %v is not statement %d: %s", sh.name, sh.bound, sh.pos, h[sh.pos])
		}
		var bindings []map[string]types.Value
		var wants []delta.Set
		for _, val := range oneSidedBindings(rng, sh.bound) {
			binding := map[string]types.Value{"p": val}
			anchor := anchorOptions(DefaultOptions(), binding)
			if val.IsNumeric() && math.IsNaN(val.AsFloat()) {
				anchor = OptionsFor(VariantR) // no solver takes a NaN constant
			}
			sub := make([]history.Modification, len(mods))
			for i, m := range mods {
				sub[i] = history.SubstModParams(m, binding)
			}
			bindings = append(bindings, binding)
			wants = append(wants, freshAnswer(t, e, sub, anchor, fmt.Sprintf("%s at %v", sh.name, val)))
		}
		for _, c := range []struct {
			v    Variant
			kind ExecutorKind
		}{{VariantRPS, ExecVectorized}, {VariantRFull, ExecVectorized}, {VariantRFull, ExecInterpreter}} {
			v, kind := c.v, c.kind
			opts := OptionsFor(v)
			opts.Executor = kind
			tpl, err := e.NewSession().CompileTemplate(mods, opts)
			if err != nil {
				t.Fatalf("%s %s %s: compile: %v", sh.name, v, kind, err)
			}
			st := tpl.Stats()
			if st.Fallback != "" || len(st.Sides) != 2 {
				t.Fatalf("%s %s: not a range template: fallback %q, sides %+v", sh.name, v, st.Fallback, st.Sides)
			}
			for side, s := range st.Sides {
				dir := map[bool]string{true: "above", false: "below"}[(side == sideFewer) == sh.rising]
				if !s.Bound.Equal(sh.bound) || s.Bound.Kind() != sh.bound.Kind() || s.Direction != dir {
					t.Fatalf("%s: side %d is %+v, want bound %v, direction %s", sh.name, side, s, sh.bound, dir)
				}
			}
			if st.KeptStatements != max(st.Sides[0].Kept, st.Sides[1].Kept) {
				t.Fatalf("%s: KeptStatements %d is not the larger side's (%+v)", sh.name, st.KeptStatements, st.Sides)
			}
			for i, binding := range bindings {
				val := binding["p"]
				label := fmt.Sprintf("%s %s %s binding %d (%v %s)", sh.name, v, kind, i, val, val.Kind())
				before := tpl.Stats()
				requireTemplateAnswer(t, tpl, binding, wants[i], label)
				after := tpl.Stats()
				took := -1
				for side := range after.Sides {
					if after.Sides[side].Evals > before.Sides[side].Evals {
						took = side
					}
				}
				fell := after.FallbackEvals > before.FallbackEvals
				if want := sh.wantSide(val); took != want || fell != (want < 0) {
					t.Fatalf("%s: took side %d (fallback %t), want %d", label, took, fell, want)
				}
			}
		}
		// keep(p) ⊆ keep(end): a binding one past the bound on the FALSE
		// side keeps, as a constant what-if, no more than that side.
		tpl, err := e.CompileTemplate(mods, OptionsFor(VariantRPS))
		if err != nil {
			t.Fatal(err)
		}
		next := types.Int(int64(sh.bound.AsFloat()) - 1)
		if sh.rising {
			next = types.Int(int64(sh.bound.AsFloat()) + 1)
		}
		_, ws, err := e.WhatIf(tpl.SubstitutedMods(map[string]types.Value{"p": next}), OptionsFor(VariantRPS))
		if err != nil {
			t.Fatal(err)
		}
		if fewer := tpl.Stats().Sides[sideFewer].Kept; ws.KeptStatements > fewer {
			t.Fatalf("%s: the what-if at %v keeps %d statements, its side %d", sh.name, next, ws.KeptStatements, fewer)
		}
	}
}

// TestStringRangeKeepsDependents: program slicing must not read string
// order into dictionary codes. Statement 14 replaced, trip 735 (4896
// seconds, 'Sun Taxi') is updated by statement 15 and, since 'Sun Taxi'
// >= 'M', by the appended string range, so its tips end at 38.92: a
// slicer that decides 'Sun Taxi' >= 'M' by codes drops the range and
// answers 37.92.
func TestStringRangeKeepsDependents(t *testing.T) {
	e := oneSidedEngine(t, "UPDATE trips SET tips = tips + 1 WHERE company >= 'M'")
	mods := []history.Modification{history.Replace{Pos: 14, Stmt: mustStmt(t, "UPDATE trips SET tolls = tolls + 2 WHERE trip_seconds = 4896")}}
	naive, _, err := e.Naive(mods)
	if err != nil {
		t.Fatal(err)
	}
	d := naive["trips"]
	if d == nil || len(d.Plus) != 1 || d.Plus[0][0] != types.Int(735) || d.Plus[0][6] != types.Float(38.92) {
		t.Fatalf("Alg. 1 answers %s, want trip 735 with tips 38.92", naive)
	}
	for _, v := range []Variant{VariantRPS, VariantRFull} {
		for _, ex := range []ExecutorKind{ExecVectorized, ExecInterpreter} {
			opts := OptionsFor(v)
			opts.Executor = ex
			got, _, err := e.WhatIf(mods, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSetsEqual(t, fmt.Sprintf("%v %s", v, ex), got, naive)
		}
	}
}

// TestTemplateOneSidedFallback: templates outside the range class — an
// = slot, two slots, an original that differs outside the slot, no
// program slicing — keep the free-slot plan, say why, and count every
// binding as a fallback eval, in the template and in the session; every
// answer equals a fresh what-if's and Alg. 1's.
func TestTemplateOneSidedFallback(t *testing.T) {
	e := oneSidedEngine(t)
	strs := oneSidedEngine(t, "UPDATE trips SET tips = tips + 1 WHERE company >= 'M'")
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name, src string
		pos       int
		variant   Variant
		params    []string
		reason    string
	}{
		{"eq", "UPDATE trips SET tolls = tolls + 2 WHERE trip_seconds = $p", 14, VariantRFull, []string{"p"}, fallbackConjunct},
		{"two-slots", "UPDATE trips SET tips = tips + 3 WHERE trip_seconds >= $a AND trip_seconds < $b", 15, VariantRFull, []string{"a", "b"}, fallbackConjunct},
		{"slot-twice", "UPDATE trips SET tips = tips + 3 WHERE trip_seconds >= $a AND trip_seconds < $a + 7000", 15, VariantRPS, []string{"a"}, fallbackConjunct},
		{"original-differs", "UPDATE trips SET tips = tips + 2 WHERE trip_seconds >= $p", 0, VariantRFull, []string{"p"}, fallbackOriginal},
		{"bound-differs", "UPDATE trips SET fare = fare * 2 WHERE trip_seconds >= $p AND trip_miles >= 0", 16, VariantRPS, []string{"p"}, fallbackOriginal},
		{"no-program-slicing", "UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= $p", 0, VariantRDS, []string{"p"}, fallbackNoSlicing},
		{"string-column", "UPDATE trips SET tips = tips + 1 WHERE company >= $p", 17, VariantRPS, []string{"p"}, fallbackColumn},
	} {
		s := e.NewSession()
		if c.reason == fallbackColumn {
			s = strs.NewSession()
		}
		mods := []history.Modification{history.Replace{Pos: c.pos, Stmt: mustStmt(t, c.src)}}
		tpl, err := s.CompileTemplate(mods, OptionsFor(c.variant))
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		if st := tpl.Stats(); st.Fallback != c.reason || st.Sides != nil {
			t.Fatalf("%s: fallback %q, sides %+v, want %q and none", c.name, st.Fallback, st.Sides, c.reason)
		}
		n := 0
		for i := 0; i < 6; i++ {
			binding := map[string]types.Value{}
			for _, p := range c.params {
				if c.name == "string-column" {
					binding[p] = types.String(fmt.Sprintf("%c", 'A'+rng.Intn(26)))
				} else {
					binding[p] = types.Int(int64(rng.Intn(10000)))
				}
			}
			label := fmt.Sprintf("%s binding %v", c.name, binding)
			want := freshAnswer(t, tpl.e, tpl.SubstitutedMods(binding), anchorOptions(OptionsFor(c.variant), binding), label)
			requireTemplateAnswer(t, tpl, binding, want, label)
			n++
		}
		if st := tpl.Stats(); st.FallbackEvals != int64(n) {
			t.Fatalf("%s: %d fallback evals, want %d", c.name, st.FallbackEvals, n)
		}
		if st := s.Stats(); st.TemplateFallbackEvals != int64(n) || st.TemplateSideEvals != 0 {
			t.Fatalf("%s: session counts %d fallback and %d side evals, want %d and 0", c.name, st.TemplateFallbackEvals, st.TemplateSideEvals, n)
		}
	}
	// Two modified positions: two replaces, or an UPDATE replacing a
	// DELETE (a delete and an insert); and a template without a slot.
	for _, mods := range [][]history.Modification{
		{history.Replace{Pos: 0, Stmt: mustStmt(t, "UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= $p")},
			history.Replace{Pos: 2, Stmt: mustStmt(t, "UPDATE trips SET tolls = tolls + 1 WHERE trip_seconds >= 7500")}},
		{history.Replace{Pos: 4, Stmt: mustStmt(t, "UPDATE trips SET tips = 0 WHERE trip_seconds >= $p")}},
		{history.Replace{Pos: 0, Stmt: mustStmt(t, "UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= 5500")}},
	} {
		tpl, err := e.CompileTemplate(mods, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := fallbackShape
		if len(tpl.Params()) == 0 {
			want = fallbackNoSlot
		}
		if st := tpl.Stats(); st.Fallback != want || st.Sides != nil {
			t.Fatalf("%v: fallback %q, sides %+v, want %q", mods, st.Fallback, st.Sides, want)
		}
	}
}

// TestTemplateOneSidedCountsSides: a range template's evals count per
// side in the template and the session, and a binding off the order
// builds the union plan once, on first use.
func TestTemplateOneSidedCountsSides(t *testing.T) {
	e := oneSidedEngine(t)
	s := e.NewSession()
	sh := oneSidedShapes[0]
	tpl, err := s.CompileTemplate([]history.Modification{history.Replace{Pos: sh.pos, Stmt: mustStmt(t, sh.src)}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, built := tpl.art.Load().fallback.Load(); built {
		t.Fatal("the union plan was built at compile")
	}
	for _, v := range []types.Value{types.Int(5500), types.Int(6000), types.Int(100), types.Null(), types.Int(1 << 60), types.Float(math.NaN())} {
		if _, err := tpl.Eval(map[string]types.Value{"p": v}); err != nil {
			t.Fatal(err)
		}
	}
	st, sess := tpl.Stats(), s.Stats()
	if st.Sides[sideFewer].Evals != 3 || st.Sides[sideMore].Evals != 1 || st.FallbackEvals != 2 || st.Evals != 6 {
		t.Fatalf("sides %+v, %d fallback evals of %d, want 3, 1 and 2 of 6", st.Sides, st.FallbackEvals, st.Evals)
	}
	if sess.TemplateSideEvals != 4 || sess.TemplateFallbackEvals != 2 {
		t.Fatalf("session counts %d side and %d fallback evals, want 4 and 2", sess.TemplateSideEvals, sess.TemplateFallbackEvals)
	}
	if _, built := tpl.art.Load().fallback.Load(); !built {
		t.Fatal("the union plan was not kept after its first use")
	}
}
