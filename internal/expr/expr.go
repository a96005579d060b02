// Package expr implements the expression language of the paper
// (Fig. 7): scalar expressions e over constants, attribute references
// and variables with arithmetic and conditional expressions, and
// conditions φ built from comparisons, boolean connectives, isnull and
// the boolean constants. The same AST serves three roles: concrete
// evaluation over tuples (statement semantics and reenactment),
// syntactic manipulation (data-slicing push-down, Fig. 9), and symbolic
// terms over VC-table variables (§8).
package expr

import (
	"strings"

	"github.com/mahif/mahif/internal/types"
)

// Expr is a node of the expression / condition AST.
type Expr interface {
	// String renders the expression in SQL-ish concrete syntax.
	String() string
	isExpr()
}

// CmpOp is a comparison operator.
type CmpOp uint8

// The comparison operators of Fig. 7.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the SQL spelling of the comparison operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Flip mirrors the operator across the relation: a op b == b op.Flip() a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return op
}

// Negate returns the complement operator: !(a op b) == a op.Negate() b.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	}
	return op
}

// Const is a literal value.
type Const struct{ V types.Value }

// Col is a reference to an attribute of the input relation by name.
type Col struct{ Name string }

// Var is a symbolic variable (used by the VC-table machinery, §8).
type Var struct{ Name string }

// Param is a named parameter slot ($name) of a scenario template. It
// renders as `$name`, flows through rewriting and simplification
// untouched, and must be substituted (SubstParams) before concrete
// evaluation. The symbolic compiler lowers it as a free variable, which
// keeps template-time slicing sound for every later binding.
type Param struct{ Name string }

// Arith is a binary arithmetic expression e ∘ e with ∘ ∈ {+,-,×,÷}.
type Arith struct {
	Op   types.Op
	L, R Expr
}

// Cmp is a comparison e ∘ e producing a boolean.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// And is binary conjunction.
type And struct{ L, R Expr }

// Or is binary disjunction.
type Or struct{ L, R Expr }

// Not is boolean negation.
type Not struct{ E Expr }

// IsNull tests whether its operand evaluates to NULL.
type IsNull struct{ E Expr }

// If is the conditional expression "if φ then e else e" of Fig. 7.
type If struct {
	Cond, Then, Else Expr
}

func (*Const) isExpr()  {}
func (*Col) isExpr()    {}
func (*Var) isExpr()    {}
func (*Param) isExpr()  {}
func (*Arith) isExpr()  {}
func (*Cmp) isExpr()    {}
func (*And) isExpr()    {}
func (*Or) isExpr()     {}
func (*Not) isExpr()    {}
func (*IsNull) isExpr() {}
func (*If) isExpr()     {}

// Constructors ---------------------------------------------------------------

// Constant wraps a value as an expression.
func Constant(v types.Value) *Const { return &Const{V: v} }

// IntConst builds an integer literal.
func IntConst(v int64) *Const { return &Const{V: types.Int(v)} }

// FloatConst builds a float literal.
func FloatConst(v float64) *Const { return &Const{V: types.Float(v)} }

// StringConst builds a string literal.
func StringConst(v string) *Const { return &Const{V: types.String(v)} }

// BoolConst builds a boolean literal.
func BoolConst(v bool) *Const { return &Const{V: types.Bool(v)} }

// True and False are the boolean constant expressions.
var (
	True  = BoolConst(true)
	False = BoolConst(false)
)

// Column builds an attribute reference.
func Column(name string) *Col { return &Col{Name: name} }

// Variable builds a symbolic variable reference.
func Variable(name string) *Var { return &Var{Name: name} }

// Parameter builds a template parameter slot $name.
func Parameter(name string) *Param { return &Param{Name: name} }

// Add, Sub, Mul, Div build arithmetic nodes.
func Add(l, r Expr) *Arith { return &Arith{Op: types.OpAdd, L: l, R: r} }
func Sub(l, r Expr) *Arith { return &Arith{Op: types.OpSub, L: l, R: r} }
func Mul(l, r Expr) *Arith { return &Arith{Op: types.OpMul, L: l, R: r} }
func Div(l, r Expr) *Arith { return &Arith{Op: types.OpDiv, L: l, R: r} }

// Eq, Ne, Lt, Le, Gt, Ge build comparison nodes.
func Eq(l, r Expr) *Cmp { return &Cmp{Op: CmpEq, L: l, R: r} }
func Ne(l, r Expr) *Cmp { return &Cmp{Op: CmpNe, L: l, R: r} }
func Lt(l, r Expr) *Cmp { return &Cmp{Op: CmpLt, L: l, R: r} }
func Le(l, r Expr) *Cmp { return &Cmp{Op: CmpLe, L: l, R: r} }
func Gt(l, r Expr) *Cmp { return &Cmp{Op: CmpGt, L: l, R: r} }
func Ge(l, r Expr) *Cmp { return &Cmp{Op: CmpGe, L: l, R: r} }

// AndOf folds a conjunction over zero or more conditions
// (empty ⇒ true).
func AndOf(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &And{L: out, R: e}
		}
	}
	if out == nil {
		return True
	}
	return out
}

// OrOf folds a disjunction over zero or more conditions
// (empty ⇒ false).
func OrOf(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Or{L: out, R: e}
		}
	}
	if out == nil {
		return False
	}
	return out
}

// Negation builds ¬e.
func Negation(e Expr) *Not { return &Not{E: e} }

// IfThenElse builds a conditional expression.
func IfThenElse(cond, then, els Expr) *If { return &If{Cond: cond, Then: then, Else: els} }

// Rendering ------------------------------------------------------------------

func (e *Const) String() string { return e.V.String() }
func (e *Col) String() string   { return e.Name }
func (e *Var) String() string   { return e.Name }
func (e *Param) String() string { return "$" + e.Name }

func parenIf(e Expr) string {
	switch e.(type) {
	case *Const, *Col, *Var, *Param, *IsNull:
		return e.String()
	}
	return "(" + e.String() + ")"
}

func (e *Arith) String() string {
	return parenIf(e.L) + " " + e.Op.String() + " " + parenIf(e.R)
}

func (e *Cmp) String() string {
	return parenIf(e.L) + " " + e.Op.String() + " " + parenIf(e.R)
}

func (e *And) String() string { return parenIf(e.L) + " AND " + parenIf(e.R) }
func (e *Or) String() string  { return parenIf(e.L) + " OR " + parenIf(e.R) }
func (e *Not) String() string { return "NOT " + parenIf(e.E) }

func (e *IsNull) String() string { return parenIf(e.E) + " IS NULL" }

func (e *If) String() string {
	var b strings.Builder
	b.WriteString("CASE WHEN ")
	b.WriteString(e.Cond.String())
	b.WriteString(" THEN ")
	b.WriteString(e.Then.String())
	b.WriteString(" ELSE ")
	b.WriteString(e.Else.String())
	b.WriteString(" END")
	return b.String()
}

// Equal reports structural equality of two expressions.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *Const:
		y, ok := b.(*Const)
		return ok && x.V.Equal(y.V) && x.V.Kind() == y.V.Kind()
	case *Col:
		y, ok := b.(*Col)
		return ok && strings.EqualFold(x.Name, y.Name)
	case *Var:
		y, ok := b.(*Var)
		return ok && x.Name == y.Name
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Name == y.Name
	case *Arith:
		y, ok := b.(*Arith)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *And:
		y, ok := b.(*And)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Or:
		y, ok := b.(*Or)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.E, y.E)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && Equal(x.E, y.E)
	case *If:
		y, ok := b.(*If)
		return ok && Equal(x.Cond, y.Cond) && Equal(x.Then, y.Then) && Equal(x.Else, y.Else)
	}
	return false
}

// Size returns the number of AST nodes, a proxy for condition cost used
// by the data-slicing cost discussion in §6.
func Size(e Expr) int {
	n := 0
	Walk(e, func(Expr) { n++ })
	return n
}

// Walk visits every node of the expression tree in prefix order.
func Walk(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *Arith:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *Cmp:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *And:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *Or:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *Not:
		Walk(x.E, visit)
	case *IsNull:
		Walk(x.E, visit)
	case *If:
		Walk(x.Cond, visit)
		Walk(x.Then, visit)
		Walk(x.Else, visit)
	}
}

// Cols returns the set of attribute names referenced by e.
func Cols(e Expr) map[string]bool {
	out := map[string]bool{}
	Walk(e, func(n Expr) {
		if c, ok := n.(*Col); ok {
			out[strings.ToLower(c.Name)] = true
		}
	})
	return out
}

// Params returns the set of template parameter names referenced by e.
func Params(e Expr) map[string]bool {
	out := map[string]bool{}
	Walk(e, func(n Expr) {
		if p, ok := n.(*Param); ok {
			out[p.Name] = true
		}
	})
	return out
}
