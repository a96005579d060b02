package core

import (
	"math"
	"slices"
	"strings"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// rangeSlot is the one $slot of a range template: a template that
// replaces one UPDATE or DELETE by the same statement with one constant
// p0 of a top-level WHERE conjunct col ⋈ p0 (⋈ ∈ {<, ≤, >, ≥}, col
// numeric) made a slot. Such a template is program-sliced once at each
// end of the slot's range instead of once with the slot free: each side
// of p0 keeps what its end keeps, and the executed plan the union of
// the two sides' keep sets.
//
// Why it is sound: every statement of the suffix is tuple-local, and
// only the slotted one differs between the two histories. A binding p
// on the side where col ⋈ p selects a subset of what col ⋈ p0 selects
// changes only tuples that p0 selects and p does not, and such a tuple
// has the same pair of states as under the end that selects nothing
// (the conjunct replaced by FALSE). On the other side p selects a
// superset, and a tuple it changes has the pair of states of the end
// that selects every row with a value in col (col IS NOT NULL). So every
// statement p's own dependency test would keep is kept by its end's,
// keep(p) ⊆ keep(end), and neither end carries the slot: the solver's
// box for free variables plays no part. A NULL binding makes the
// conjunct NULL: an UPDATE then rewrites no row, so it takes the FALSE
// side, and a DELETE, which removes every row whose condition is not
// false (Eq. 2's σ_¬θ, NULL included), removes every row the other
// conjuncts do not rule out — a superset of p0's, whose rows it adds
// all have a value in col — so it takes the IS NOT NULL side.
//
// Sides need an order: comparisons mix int and float lanes, and beyond
// ±2^53 they stop being transitive, and NaN is equal to every number
// under types.Compare (col ≥ NaN selects every row). A binding that is
// NaN or at least 2^53 in magnitude therefore takes neither side. The
// union of both keep sets is sound for any binding: each tuple a binding
// changes has the pair of states of one of the two ends.
//
// The same argument answers a binding on a side without running a
// program: the tuples it changes are the rows between p0 and it, with
// the states of its side's end, which a band table per side holds,
// reenacted through the side's keep set (provision.go).
type rangeSlot struct {
	param string
	rel   string      // the relation the slotted statement writes
	col   string      // the slot column
	op    expr.CmpOp  // col op $param, operands in that order
	bound types.Value // p0, the original statement's constant
	null  int         // the side of a NULL binding
	// stmt is the slotted statement in the plan's suffix; ends[side] is
	// it with the conjunct replaced by that side's end, which only the
	// dependency tests see.
	stmt history.Statement
	ends [2]history.Statement
}

// The two sides of a range template's bound, by the rows their bindings
// select compared with p0's.
const (
	sideFewer = iota // a subset of p0's rows; sliced with the conjunct FALSE
	sideMore         // a superset; sliced with col IS NOT NULL
)

// maxOrdered bounds the bindings and originals whose comparisons keep
// one order in every lane: every int of smaller magnitude is a float.
const maxOrdered = 1 << 53

// Why a template keeps the free-slot plan (TemplateStats.Fallback).
const (
	fallbackNoSlot     = "no slot"
	fallbackNoSlicing  = "program slicing off"
	fallbackShape      = "not one replaced UPDATE or DELETE"
	fallbackConjunct   = "slot is not one range conjunct of its WHERE"
	fallbackColumn     = "slot column is not numeric"
	fallbackOriginal   = "original statement differs outside the slot"
	fallbackBoundRange = "original bound is not a number within ±2^53"
)

// rangeSlotOf reports whether the modified side of suffix is a range
// template under opts, and why not when it is not.
func rangeSlotOf(suffix *history.PaddedPair, params map[string]paramClass, db *storage.Database, opts Options) (*rangeSlot, string) {
	switch {
	case len(params) == 0:
		return nil, fallbackNoSlot
	case !opts.ProgramSlicing:
		return nil, fallbackNoSlicing
	case len(suffix.ModifiedPos) != 1 || !history.SameClass(suffix.Orig[0], suffix.Mod[0]):
		return nil, fallbackShape
	}
	var rel string
	var origWhere, where expr.Expr
	switch x := suffix.Mod[0].(type) {
	case *history.Update:
		rel, where, origWhere = x.Rel, x.Where, suffix.Orig[0].(*history.Update).Where
	case *history.Delete:
		rel, where, origWhere = x.Rel, x.Where, suffix.Orig[0].(*history.Delete).Where
	default:
		return nil, fallbackShape
	}

	// The one slot occurrence is a conjunct col ⋈ $p.
	occurrences := 0
	walkStatement(suffix.Mod[0], func(e expr.Expr) {
		if _, ok := e.(*expr.Param); ok {
			occurrences++
		}
	})
	conjs := expr.Conjuncts(where)
	at := -1
	for i, c := range conjs {
		if len(expr.Params(c)) > 0 {
			at = i
		}
	}
	if occurrences != 1 || at < 0 {
		return nil, fallbackConjunct
	}
	cmp, ok := conjs[at].(*expr.Cmp)
	if !ok || (cmp.Op != expr.CmpLt && cmp.Op != expr.CmpLe && cmp.Op != expr.CmpGt && cmp.Op != expr.CmpGe) {
		return nil, fallbackConjunct
	}
	r := &rangeSlot{op: cmp.Op, stmt: suffix.Mod[0], null: sideFewer}
	if _, ok := r.stmt.(*history.Delete); ok {
		r.null = sideMore
	}
	colSide, slotSide := cmp.L, cmp.R
	if _, ok := slotSide.(*expr.Param); !ok {
		colSide, slotSide, r.op = cmp.R, cmp.L, cmp.Op.Flip()
	}
	col, isCol := colSide.(*expr.Col)
	slot, isSlot := slotSide.(*expr.Param)
	if !isCol || !isSlot {
		return nil, fallbackConjunct
	}
	r.param, r.rel, r.col = slot.Name, rel, col.Name
	relation, err := db.Relation(rel)
	if err != nil {
		return nil, fallbackColumn
	}
	if colKind(relation.Schema)(col.Name) != classNumeric {
		return nil, fallbackColumn
	}

	// The original is the template with one constant in the slot's place.
	origConjs := expr.Conjuncts(origWhere)
	if len(origConjs) != len(conjs) {
		return nil, fallbackOriginal
	}
	oc, ok := origConjs[at].(*expr.Cmp)
	if !ok {
		return nil, fallbackOriginal
	}
	p0, ok := oc.R.(*expr.Const)
	if slotSide == cmp.L {
		p0, ok = oc.L.(*expr.Const)
	}
	if !ok || !sameStatement(history.SubstParams(suffix.Mod[0], map[string]types.Value{r.param: p0.V}), suffix.Orig[0]) {
		return nil, fallbackOriginal
	}
	if !ordered(p0.V) {
		return nil, fallbackBoundRange
	}
	r.bound = p0.V

	for side, end := range [2]expr.Expr{expr.False, expr.Negation(&expr.IsNull{E: col})} {
		w := make([]expr.Expr, len(conjs))
		copy(w, conjs)
		w[at] = end
		switch x := suffix.Mod[0].(type) {
		case *history.Update:
			r.ends[side] = &history.Update{Rel: x.Rel, Set: x.Set, Where: expr.AndOf(w...)}
		case *history.Delete:
			r.ends[side] = &history.Delete{Rel: x.Rel, Where: expr.AndOf(w...)}
		}
	}
	return r, ""
}

// atEnd is noIns with the slotted statement replaced by its form at
// side's end of the range: the pair side's dependency run slices. Only
// the relation the slotted statement writes has it.
func (r *rangeSlot) atEnd(noIns *history.PaddedPair, side int) *history.PaddedPair {
	out := &history.PaddedPair{Orig: noIns.Orig, Mod: slices.Clone(noIns.Mod), ModifiedPos: noIns.ModifiedPos}
	for _, i := range noIns.ModifiedPos {
		if out.Mod[i] == r.stmt {
			out.Mod[i] = r.ends[side]
		}
	}
	return out
}

// ordered reports whether v is a number every lane orders the same way
// against any other such number: not NaN, and below 2^53 in magnitude.
func ordered(v types.Value) bool {
	if !v.IsNumeric() {
		return false
	}
	f := v.AsFloat()
	return !math.IsNaN(f) && math.Abs(f) < maxOrdered
}

// side is the side of the bound binding is on; ok is false for a
// binding off the order (ordered), which takes the union of both sides.
func (r *rangeSlot) side(binding map[string]types.Value) (side int, ok bool) {
	v := binding[r.param]
	if v.IsNull() {
		return r.null, true
	}
	if !ordered(v) {
		return 0, false
	}
	p, p0 := v.AsFloat(), r.bound.AsFloat()
	// Under > and ≥ a larger binding selects fewer rows; under < and ≤
	// a smaller one. At p0 itself the binding changes nothing.
	if p == p0 || (p > p0) == r.rising() {
		return sideFewer, true
	}
	return sideMore, true
}

// rising reports whether a larger binding selects fewer rows.
func (r *rangeSlot) rising() bool { return r.op == expr.CmpGt || r.op == expr.CmpGe }

// direction names the bindings of side relative to the bound: "above"
// or "below" (the bound itself is on the FALSE side).
func (r *rangeSlot) direction(side int) string {
	if (side == sideFewer) == r.rising() {
		return "above"
	}
	return "below"
}

// walkStatement visits every expression node of an UPDATE or DELETE.
func walkStatement(st history.Statement, visit func(expr.Expr)) {
	switch x := st.(type) {
	case *history.Update:
		for _, sc := range x.Set {
			expr.Walk(sc.E, visit)
		}
		expr.Walk(x.Where, visit)
	case *history.Delete:
		expr.Walk(x.Where, visit)
	}
}

// sameStatement reports whether two UPDATEs or two DELETEs are the same
// statement, expression for expression.
func sameStatement(a, b history.Statement) bool {
	switch x := a.(type) {
	case *history.Update:
		y, ok := b.(*history.Update)
		if !ok || !strings.EqualFold(x.Rel, y.Rel) || len(x.Set) != len(y.Set) || !expr.Equal(x.Where, y.Where) {
			return false
		}
		for i, sc := range x.Set {
			if !strings.EqualFold(sc.Col, y.Set[i].Col) || !expr.Equal(sc.E, y.Set[i].E) {
				return false
			}
		}
		return true
	case *history.Delete:
		y, ok := b.(*history.Delete)
		return ok && strings.EqualFold(x.Rel, y.Rel) && expr.Equal(x.Where, y.Where)
	}
	return false
}
