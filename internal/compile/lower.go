package compile

import (
	"fmt"
	"math"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/milp"
	"github.com/mahif/mahif/internal/types"
)

// compileNum lowers a value-position expression to a linear form plus
// its interval, memoized on the expression's interned structure (see
// interner). Conditions in value position contribute their indicator
// ({0,1}), memoized as conditions; strings their dictionary code.
func (c *compiler) compileNum(e expr.Expr) (lin, interval, error) {
	switch e.(type) {
	case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
		b, err := c.compileBool(e)
		if err != nil {
			return lin{}, interval{}, err
		}
		return varLin(b), interval{0, 1}, nil
	}
	key := c.id(e)
	if hit, ok := c.numMemo.get(key); ok {
		return hit.l, hit.iv, nil
	}
	c.lowered++
	l, iv, err := c.compileNumUncached(e)
	if err == nil {
		c.numMemo.put(key, numEntry{l: l, iv: iv})
	}
	return l, iv, err
}

func (c *compiler) compileNumUncached(e expr.Expr) (lin, interval, error) {
	switch x := e.(type) {
	case *expr.Const:
		switch x.V.Kind() {
		case types.KindInt, types.KindFloat:
			f := x.V.AsFloat()
			return constLin(f), interval{f, f}, nil
		case types.KindString:
			f := c.code(x.V.AsString())
			return constLin(f), interval{f, f}, nil
		case types.KindBool:
			f := 0.0
			if x.V.AsBool() {
				f = 1
			}
			return constLin(f), interval{f, f}, nil
		case types.KindNull:
			return lin{}, interval{}, fmt.Errorf("compile: NULL literal in value position")
		}
	case *expr.Var:
		v, iv, err := c.sourceVar(x.Name)
		if err != nil {
			return lin{}, interval{}, err
		}
		return varLin(v), iv, nil
	case *expr.Param:
		// Open template slot: a free model variable named "$name" (kind
		// from Options.ParamKinds via the merged kind map). Leaving the
		// slot free keeps UNSAT verdicts valid for every later binding.
		v, iv, err := c.sourceVar("$" + x.Name)
		if err != nil {
			return lin{}, interval{}, err
		}
		return varLin(v), iv, nil
	case *expr.Col:
		return lin{}, interval{}, fmt.Errorf("compile: unbound attribute %q (bind columns before compiling)", x.Name)
	case *expr.Arith:
		return c.compileArith(x)
	case *expr.If:
		return c.compileIf(x)
	}
	return lin{}, interval{}, fmt.Errorf("compile: cannot lower %T to a linear form", e)
}

func (c *compiler) compileArith(x *expr.Arith) (lin, interval, error) {
	l, liv, err := c.compileNum(x.L)
	if err != nil {
		return lin{}, interval{}, err
	}
	r, riv, err := c.compileNum(x.R)
	if err != nil {
		return lin{}, interval{}, err
	}
	switch x.Op {
	case types.OpAdd:
		return l.add(r, 1), interval{liv.lo + riv.lo, liv.hi + riv.hi}, nil
	case types.OpSub:
		return l.add(r, -1), interval{liv.lo - riv.hi, liv.hi - riv.lo}, nil
	case types.OpMul:
		if len(r.terms) == 0 {
			return l.scale(r.k), scaleIv(liv, r.k), nil
		}
		if len(l.terms) == 0 {
			return r.scale(l.k), scaleIv(riv, l.k), nil
		}
		return lin{}, interval{}, fmt.Errorf("compile: nonlinear product %s", x)
	case types.OpDiv:
		if len(r.terms) == 0 && r.k != 0 {
			return l.scale(1 / r.k), scaleIv(liv, 1/r.k), nil
		}
		return lin{}, interval{}, fmt.Errorf("compile: division by non-constant %s", x)
	}
	return lin{}, interval{}, fmt.Errorf("compile: unknown arithmetic operator")
}

func scaleIv(iv interval, f float64) interval {
	a, b := iv.lo*f, iv.hi*f
	return interval{math.Min(a, b), math.Max(a, b)}
}

// compileIf lowers "if φ then e1 else e2" in value position (Fig. 13):
// a fresh variable v is forced to e1 when the guard indicator is 1 and
// to e2 when it is 0, with big-M sized from the branch intervals.
func (c *compiler) compileIf(x *expr.If) (lin, interval, error) {
	b, err := c.compileBool(x.Cond)
	if err != nil {
		return lin{}, interval{}, err
	}
	tl, tiv, err := c.compileNum(x.Then)
	if err != nil {
		return lin{}, interval{}, err
	}
	el, eiv, err := c.compileNum(x.Else)
	if err != nil {
		return lin{}, interval{}, err
	}
	iv := ivUnion(tiv, eiv)
	if !iv.finite() {
		// A branch reads a non-finite value: so does the conditional.
		return constLin(math.NaN()), iv, nil
	}
	v, err := c.model.AddVar(iv.lo, iv.hi, false)
	if err != nil {
		return lin{}, interval{}, err
	}
	m := iv.width() + 1
	vl := varLin(v)
	// b=1 ⇒ v = then: v − then ≤ M(1−b) and ≥ −M(1−b).
	d := vl.add(tl, -1)
	if err := c.model.AddConstraint(d.milpTerms(milp.Term{Var: b, Coef: m}), milp.LE, -d.k+m); err != nil {
		return lin{}, interval{}, err
	}
	if err := c.model.AddConstraint(d.milpTerms(milp.Term{Var: b, Coef: -m}), milp.GE, -d.k-m); err != nil {
		return lin{}, interval{}, err
	}
	// b=0 ⇒ v = else: v − else ≤ M·b and ≥ −M·b.
	d = vl.add(el, -1)
	if err := c.model.AddConstraint(d.milpTerms(milp.Term{Var: b, Coef: -m}), milp.LE, -d.k); err != nil {
		return lin{}, interval{}, err
	}
	if err := c.model.AddConstraint(d.milpTerms(milp.Term{Var: b, Coef: m}), milp.GE, -d.k); err != nil {
		return lin{}, interval{}, err
	}
	return vl, iv, nil
}

// compileBool lowers a condition to a {0,1} indicator variable whose
// value equals the condition's truth in every model solution, memoized
// on the expression's interned structure.
func (c *compiler) compileBool(e expr.Expr) (int, error) {
	key := c.id(e)
	if b, ok := c.boolMemo.get(key); ok {
		return b, nil
	}
	c.lowered++
	b, err := c.compileBoolUncached(e)
	if err == nil {
		c.boolMemo.put(key, b)
	}
	return b, err
}

func (c *compiler) compileBoolUncached(e expr.Expr) (int, error) {
	switch x := e.(type) {
	case *expr.Const:
		if x.V.Kind() != types.KindBool {
			return 0, fmt.Errorf("compile: non-boolean constant %s in condition position", x.V)
		}
		val := 0.0
		if x.V.AsBool() {
			val = 1
		}
		return c.model.AddVar(val, val, true)
	case *expr.Var:
		if c.kinds[x.Name] != types.KindBool {
			return 0, fmt.Errorf("compile: variable %q used as condition but has kind %s", x.Name, c.kinds[x.Name])
		}
		v, _, err := c.sourceVar(x.Name)
		return v, err
	case *expr.Param:
		if c.kinds["$"+x.Name] != types.KindBool {
			return 0, fmt.Errorf("compile: parameter $%s used as condition but has kind %s", x.Name, c.kinds["$"+x.Name])
		}
		v, _, err := c.sourceVar("$" + x.Name)
		return v, err
	case *expr.Cmp:
		return c.compileComparison(x)
	case *expr.And:
		return c.compileAndOr(x.L, x.R, true)
	case *expr.Or:
		return c.compileAndOr(x.L, x.R, false)
	case *expr.Not:
		inner, err := c.compileBool(x.E)
		if err != nil {
			return 0, err
		}
		b, err := c.model.AddBinary()
		if err != nil {
			return 0, err
		}
		// b + inner = 1 (Fig. 13 negation rule).
		err = c.model.AddConstraint([]milp.Term{{Var: b, Coef: 1}, {Var: inner, Coef: 1}}, milp.EQ, 1)
		return b, err
	case *expr.IsNull:
		// Non-NULL symbolic domain: isnull is uniformly false.
		return c.model.AddVar(0, 0, true)
	case *expr.If:
		return c.compileBoolIf(x)
	}
	return 0, fmt.Errorf("compile: %T is not a condition", e)
}

func (c *compiler) compileAndOr(le, re expr.Expr, isAnd bool) (int, error) {
	b1, err := c.compileBool(le)
	if err != nil {
		return 0, err
	}
	b2, err := c.compileBool(re)
	if err != nil {
		return 0, err
	}
	b, err := c.model.AddBinary()
	if err != nil {
		return 0, err
	}
	if isAnd {
		// b ≤ b1, b ≤ b2, b ≥ b1+b2−1.
		if err := c.model.AddConstraint([]milp.Term{{Var: b, Coef: 1}, {Var: b1, Coef: -1}}, milp.LE, 0); err != nil {
			return 0, err
		}
		if err := c.model.AddConstraint([]milp.Term{{Var: b, Coef: 1}, {Var: b2, Coef: -1}}, milp.LE, 0); err != nil {
			return 0, err
		}
		err = c.model.AddConstraint([]milp.Term{{Var: b, Coef: 1}, {Var: b1, Coef: -1}, {Var: b2, Coef: -1}}, milp.GE, -1)
		return b, err
	}
	// b ≥ b1, b ≥ b2, b ≤ b1+b2.
	if err := c.model.AddConstraint([]milp.Term{{Var: b, Coef: 1}, {Var: b1, Coef: -1}}, milp.GE, 0); err != nil {
		return 0, err
	}
	if err := c.model.AddConstraint([]milp.Term{{Var: b, Coef: 1}, {Var: b2, Coef: -1}}, milp.GE, 0); err != nil {
		return 0, err
	}
	err = c.model.AddConstraint([]milp.Term{{Var: b, Coef: 1}, {Var: b1, Coef: -1}, {Var: b2, Coef: -1}}, milp.LE, 0)
	return b, err
}

// compileComparison links an indicator to a comparison via big-M constraints.
func (c *compiler) compileComparison(x *expr.Cmp) (int, error) {
	op := x.Op
	l, r := x.L, x.R
	// Normalize: keep only ≤, <, =, ≠ by flipping operands.
	switch op {
	case expr.CmpGt:
		op, l, r = expr.CmpLt, r, l
	case expr.CmpGe:
		op, l, r = expr.CmpLe, r, l
	}
	if op != expr.CmpEq && op != expr.CmpNe && (c.stringValued(l) || c.stringValued(r)) {
		// A string's code is its order of appearance, not its place in
		// string order, so an ordered comparison of strings lowers to a
		// free indicator: it can only turn a test sat, which costs
		// precision, never soundness. = and <> stay exact on codes.
		return c.model.AddBinary()
	}
	ll, liv, err := c.compileNum(l)
	if err != nil {
		return 0, err
	}
	rl, riv, err := c.compileNum(r)
	if err != nil {
		return 0, err
	}
	d := ll.add(rl, -1) // d = l − r
	div := interval{liv.lo - riv.hi, liv.hi - riv.lo}
	if !div.finite() {
		// A non-finite constant (NaN, ±Inf), or arithmetic that
		// overflowed, has no place on the solver's line, so a comparison
		// reading one lowers to a free indicator too: sound, at the cost
		// of precision.
		return c.model.AddBinary()
	}
	m := math.Max(math.Abs(div.lo), math.Abs(div.hi)) + Eps + 1

	b, err := c.model.AddBinary()
	if err != nil {
		return 0, err
	}
	addLE := func(form lin, extra []milp.Term, rhs float64) error {
		return c.model.AddConstraint(form.milpTerms(extra...), milp.LE, rhs-form.k)
	}
	addGE := func(form lin, extra []milp.Term, rhs float64) error {
		return c.model.AddConstraint(form.milpTerms(extra...), milp.GE, rhs-form.k)
	}
	switch op {
	case expr.CmpLe:
		// b=1 ⇒ d ≤ 0 (d + M·b ≤ M) ; b=0 ⇒ d ≥ Eps (d + M·b ≥ Eps).
		if err := addLE(d, []milp.Term{{Var: b, Coef: m}}, m); err != nil {
			return 0, err
		}
		return b, addGE(d, []milp.Term{{Var: b, Coef: m}}, Eps)
	case expr.CmpLt:
		// b=1 ⇒ d ≤ −Eps (d + M·b ≤ M−Eps) ; b=0 ⇒ d ≥ 0 (d + M·b ≥ 0).
		if err := addLE(d, []milp.Term{{Var: b, Coef: m}}, m-Eps); err != nil {
			return 0, err
		}
		return b, addGE(d, []milp.Term{{Var: b, Coef: m}}, 0)
	case expr.CmpEq, expr.CmpNe:
		beq := b
		if op == expr.CmpNe {
			// Compile equality, then return its negation.
			inner, err := c.model.AddBinary()
			if err != nil {
				return 0, err
			}
			if err := c.model.AddConstraint([]milp.Term{{Var: b, Coef: 1}, {Var: inner, Coef: 1}}, milp.EQ, 1); err != nil {
				return 0, err
			}
			beq = inner
		}
		// beq=1 ⇒ |d| ≤ 0.
		if err := addLE(d, []milp.Term{{Var: beq, Coef: m}}, m); err != nil {
			return 0, err
		}
		if err := addGE(d, []milp.Term{{Var: beq, Coef: -m}}, -m); err != nil {
			return 0, err
		}
		// beq=0 ⇒ |d| ≥ Eps, with a side-selector s:
		// d ≥ Eps − M·s − M·beq  (s=0 picks the positive side) and
		// d ≤ −Eps + M(1−s) + M·beq  (s=1 picks the negative side).
		s, err := c.model.AddBinary()
		if err != nil {
			return 0, err
		}
		if err := addGE(d, []milp.Term{{Var: s, Coef: m}, {Var: beq, Coef: m}}, Eps); err != nil {
			return 0, err
		}
		if err := addLE(d, []milp.Term{{Var: s, Coef: m}, {Var: beq, Coef: -m}}, m-Eps); err != nil {
			return 0, err
		}
		return b, nil
	}
	return 0, fmt.Errorf("compile: unsupported comparison %s", x)
}

// stringValued reports whether e is a string constant, or a variable or
// $slot of string kind.
func (c *compiler) stringValued(e expr.Expr) bool {
	switch x := e.(type) {
	case *expr.Const:
		return x.V.Kind() == types.KindString
	case *expr.Var:
		return c.kinds[x.Name] == types.KindString
	case *expr.Param:
		return c.kinds["$"+x.Name] == types.KindString
	}
	return false
}

// compileBoolIf lowers a conditional used as a condition: both branches
// are boolean indicators and the result selects between them.
func (c *compiler) compileBoolIf(x *expr.If) (int, error) {
	bc, err := c.compileBool(x.Cond)
	if err != nil {
		return 0, err
	}
	bt, err := c.compileBool(x.Then)
	if err != nil {
		return 0, err
	}
	be, err := c.compileBool(x.Else)
	if err != nil {
		return 0, err
	}
	b, err := c.model.AddBinary()
	if err != nil {
		return 0, err
	}
	// bc=1 ⇒ b = bt ; bc=0 ⇒ b = be. M = 1 suffices for binaries.
	cons := []struct {
		terms []milp.Term
		sense milp.Sense
		rhs   float64
	}{
		{[]milp.Term{{Var: b, Coef: 1}, {Var: bt, Coef: -1}, {Var: bc, Coef: 1}}, milp.LE, 1},
		{[]milp.Term{{Var: b, Coef: 1}, {Var: bt, Coef: -1}, {Var: bc, Coef: -1}}, milp.GE, -1},
		{[]milp.Term{{Var: b, Coef: 1}, {Var: be, Coef: -1}, {Var: bc, Coef: -1}}, milp.LE, 0},
		{[]milp.Term{{Var: b, Coef: 1}, {Var: be, Coef: -1}, {Var: bc, Coef: 1}}, milp.GE, 0},
	}
	for _, cn := range cons {
		if err := c.model.AddConstraint(cn.terms, cn.sense, cn.rhs); err != nil {
			return 0, err
		}
	}
	return b, nil
}
