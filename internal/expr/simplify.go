package expr

import "github.com/mahif/mahif/internal/types"

// Simplify rewrites e into an equivalent, usually smaller expression:
// constant subexpressions are folded, boolean identities applied
// (true∧φ ⇒ φ, false∨φ ⇒ φ, ¬¬φ ⇒ φ, …), conditionals with constant
// or identical branches collapsed, and double negations of comparisons
// folded into the complemented operator. Simplification preserves SQL
// three-valued semantics: rules that would be unsound under NULL
// (e.g. φ∧¬φ ⇒ false) are deliberately not applied.
func Simplify(e Expr) Expr {
	switch x := e.(type) {
	case *Const, *Col, *Var:
		return e
	case *Arith:
		l, r := Simplify(x.L), Simplify(x.R)
		if lc, ok := l.(*Const); ok {
			if rc, ok := r.(*Const); ok {
				if v, err := types.Arith(x.Op, lc.V, rc.V); err == nil {
					return Constant(v)
				}
			}
		}
		// Additive / multiplicative identities over numeric constants.
		if rc, ok := r.(*Const); ok && rc.V.IsNumeric() {
			f := rc.V.AsFloat()
			switch {
			case f == 0 && (x.Op == types.OpAdd || x.Op == types.OpSub):
				return l
			case f == 1 && x.Op == types.OpMul:
				return l
			}
		}
		if lc, ok := l.(*Const); ok && lc.V.IsNumeric() {
			f := lc.V.AsFloat()
			switch {
			case f == 0 && x.Op == types.OpAdd:
				return r
			case f == 1 && x.Op == types.OpMul:
				return r
			}
		}
		return &Arith{Op: x.Op, L: l, R: r}
	case *Cmp:
		l, r := Simplify(x.L), Simplify(x.R)
		if lc, ok := l.(*Const); ok {
			if rc, ok := r.(*Const); ok {
				if v, err := EvalCmp(x.Op, lc.V, rc.V); err == nil && !v.IsNull() {
					return Constant(v)
				}
			}
		}
		return &Cmp{Op: x.Op, L: l, R: r}
	case *And:
		return SimplifyAnd(Simplify(x.L), Simplify(x.R))
	case *Or:
		l, r := Simplify(x.L), Simplify(x.R)
		if isConstBool(l, true) || isConstBool(r, true) {
			return True
		}
		if isConstBool(l, false) {
			return r
		}
		if isConstBool(r, false) {
			return l
		}
		if Equal(l, r) {
			return l
		}
		return &Or{L: l, R: r}
	case *Not:
		inner := Simplify(x.E)
		switch y := inner.(type) {
		case *Const:
			if y.V.Kind() == types.KindBool {
				return BoolConst(!y.V.AsBool())
			}
		case *Not:
			return y.E
		case *Cmp:
			// ¬(a op b) ⇒ a ¬op b — sound in 3VL because both sides are
			// NULL exactly when an operand is NULL.
			return &Cmp{Op: y.Op.Negate(), L: y.L, R: y.R}
		}
		return &Not{E: inner}
	case *IsNull:
		inner := Simplify(x.E)
		if c, ok := inner.(*Const); ok {
			return BoolConst(c.V.IsNull())
		}
		return &IsNull{E: inner}
	case *If:
		c, t, el := Simplify(x.Cond), Simplify(x.Then), Simplify(x.Else)
		if cc, ok := c.(*Const); ok {
			// A NULL or false guard selects the else branch, matching Eval.
			if cc.V.IsTrue() {
				return t
			}
			return el
		}
		if Equal(t, el) {
			return t
		}
		return &If{Cond: c, Then: t, Else: el}
	}
	return e
}

// SimplifyAnd is Simplify's rule for l ∧ r over operands that are
// already simplified, so folding it over simplified conjuncts rebuilds
// Simplify of their left-deep conjunction node for node. A caller that
// simplified a shared leading conjunct once can extend it per use
// without simplifying it again.
func SimplifyAnd(l, r Expr) Expr {
	if isConstBool(l, false) || isConstBool(r, false) {
		return False
	}
	if isConstBool(l, true) {
		return r
	}
	if isConstBool(r, true) {
		return l
	}
	if Equal(l, r) {
		return l
	}
	return &And{L: l, R: r}
}

func isConstBool(e Expr, want bool) bool {
	c, ok := e.(*Const)
	return ok && c.V.Kind() == types.KindBool && c.V.AsBool() == want
}

// IsTriviallyTrue reports whether e simplifies to the constant true.
func IsTriviallyTrue(e Expr) bool { return isConstBool(Simplify(e), true) }

// IsTriviallyFalse reports whether e simplifies to the constant false.
func IsTriviallyFalse(e Expr) bool { return isConstBool(Simplify(e), false) }

// Conjuncts flattens nested conjunctions into a slice.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Expr{e}
}
