package expr

import (
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

func tupleEnv(cols []string, vals ...types.Value) *Env {
	sc := make([]schema.Column, len(cols))
	for i, c := range cols {
		sc[i] = schema.Col(c, vals[i].Kind())
	}
	return TupleEnv(schema.New("t", sc...), schema.Tuple(vals))
}

func evalOK(t *testing.T, e Expr, env *Env) types.Value {
	t.Helper()
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestEvalConstantsAndColumns(t *testing.T) {
	env := tupleEnv([]string{"a", "b"}, types.Int(3), types.String("x"))
	if v := evalOK(t, IntConst(7), env); v.AsInt() != 7 {
		t.Errorf("const = %v", v)
	}
	if v := evalOK(t, Column("a"), env); v.AsInt() != 3 {
		t.Errorf("col a = %v", v)
	}
	if v := evalOK(t, Column("B"), env); v.AsString() != "x" {
		t.Errorf("case-insensitive col B = %v", v)
	}
	if _, err := Eval(Column("nope"), env); err == nil {
		t.Error("unknown column must error")
	}
}

func TestEvalArithmetic(t *testing.T) {
	env := tupleEnv([]string{"a"}, types.Int(10))
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{Add(Column("a"), IntConst(5)), types.Int(15)},
		{Sub(Column("a"), IntConst(5)), types.Int(5)},
		{Mul(Column("a"), IntConst(3)), types.Int(30)},
		{Div(Column("a"), IntConst(4)), types.Float(2.5)},
		{Add(Column("a"), FloatConst(0.5)), types.Float(10.5)},
	}
	for _, c := range cases {
		got := evalOK(t, c.e, env)
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalComparisons(t *testing.T) {
	env := tupleEnv([]string{"a", "s"}, types.Int(10), types.String("uk"))
	cases := []struct {
		e    Expr
		want bool
	}{
		{Eq(Column("a"), IntConst(10)), true},
		{Ne(Column("a"), IntConst(10)), false},
		{Lt(Column("a"), IntConst(11)), true},
		{Le(Column("a"), IntConst(10)), true},
		{Gt(Column("a"), IntConst(10)), false},
		{Ge(Column("a"), IntConst(10)), true},
		{Eq(Column("s"), StringConst("uk")), true},
		{Eq(Column("s"), StringConst("us")), false},
		{Eq(Column("a"), FloatConst(10.0)), true},
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, env); got.AsBool() != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalBooleanConnectives(t *testing.T) {
	env := tupleEnv([]string{"a"}, types.Int(1))
	tr := Eq(Column("a"), IntConst(1))
	fa := Eq(Column("a"), IntConst(2))
	cases := []struct {
		e    Expr
		want bool
	}{
		{AndOf(tr, tr), true},
		{AndOf(tr, fa), false},
		{OrOf(fa, tr), true},
		{OrOf(fa, fa), false},
		{Negation(fa), true},
		{Negation(tr), false},
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, env); got.AsBool() != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	env := tupleEnv([]string{"n", "a"}, types.Null(), types.Int(1))
	null := Column("n")
	tr := Eq(Column("a"), IntConst(1))
	fa := Eq(Column("a"), IntConst(2))

	// Comparisons with NULL are NULL.
	if v := evalOK(t, Eq(null, IntConst(1)), env); !v.IsNull() {
		t.Errorf("NULL = 1 → %v, want NULL", v)
	}
	// NULL AND false = false; NULL AND true = NULL.
	if v := evalOK(t, AndOf(Eq(null, IntConst(1)), fa), env); v.IsNull() || v.AsBool() {
		t.Errorf("NULL AND false = %v, want false", v)
	}
	if v := evalOK(t, AndOf(Eq(null, IntConst(1)), tr), env); !v.IsNull() {
		t.Errorf("NULL AND true = %v, want NULL", v)
	}
	// NULL OR true = true; NULL OR false = NULL.
	if v := evalOK(t, OrOf(Eq(null, IntConst(1)), tr), env); v.IsNull() || !v.AsBool() {
		t.Errorf("NULL OR true = %v, want true", v)
	}
	if v := evalOK(t, OrOf(Eq(null, IntConst(1)), fa), env); !v.IsNull() {
		t.Errorf("NULL OR false = %v, want NULL", v)
	}
	// NOT NULL = NULL; NULL arithmetic = NULL; IS NULL.
	if v := evalOK(t, Negation(Eq(null, IntConst(1))), env); !v.IsNull() {
		t.Errorf("NOT NULL = %v, want NULL", v)
	}
	if v := evalOK(t, Add(null, IntConst(1)), env); !v.IsNull() {
		t.Errorf("NULL + 1 = %v, want NULL", v)
	}
	if v := evalOK(t, &IsNull{E: null}, env); !v.AsBool() {
		t.Errorf("n IS NULL = %v, want true", v)
	}
	if v := evalOK(t, &IsNull{E: Column("a")}, env); v.AsBool() {
		t.Errorf("a IS NULL = %v, want false", v)
	}
}

func TestEvalIfThenElse(t *testing.T) {
	env := tupleEnv([]string{"a"}, types.Int(60))
	e := IfThenElse(Ge(Column("a"), IntConst(50)), IntConst(0), Column("a"))
	if v := evalOK(t, e, env); v.AsInt() != 0 {
		t.Errorf("if-then = %v, want 0", v)
	}
	env = tupleEnv([]string{"a"}, types.Int(40))
	if v := evalOK(t, e, env); v.AsInt() != 40 {
		t.Errorf("if-else = %v, want 40", v)
	}
	// A NULL guard selects the else branch (not-satisfied semantics).
	env = tupleEnv([]string{"a"}, types.Null())
	e = IfThenElse(Ge(Column("a"), IntConst(50)), IntConst(1), IntConst(2))
	if v := evalOK(t, e, env); v.AsInt() != 2 {
		t.Errorf("if with NULL guard = %v, want 2", v)
	}
}

func TestEvalVariables(t *testing.T) {
	env := &Env{Vars: map[string]types.Value{"x": types.Int(5)}}
	if v := evalOK(t, Add(Variable("x"), IntConst(1)), env); v.AsInt() != 6 {
		t.Errorf("x+1 = %v", v)
	}
	if _, err := Eval(Variable("y"), env); err == nil {
		t.Error("unbound variable must error")
	}
}

func TestSatisfied(t *testing.T) {
	s := schema.New("t", schema.Col("a", types.KindInt))
	cond := Ge(Column("a"), IntConst(10))
	ok, err := Satisfied(cond, s, schema.Tuple{types.Int(12)})
	if err != nil || !ok {
		t.Errorf("12 >= 10: %v, %v", ok, err)
	}
	ok, err = Satisfied(cond, s, schema.Tuple{types.Int(5)})
	if err != nil || ok {
		t.Errorf("5 >= 10: %v, %v", ok, err)
	}
	// NULL condition is not satisfied.
	ok, err = Satisfied(cond, s, schema.Tuple{types.Null()})
	if err != nil || ok {
		t.Errorf("NULL >= 10: %v, %v", ok, err)
	}
}

func TestValidate(t *testing.T) {
	s := schema.New("t", schema.Col("a", types.KindInt))
	if err := Validate(Ge(Column("a"), IntConst(1)), s); err != nil {
		t.Errorf("valid condition rejected: %v", err)
	}
	if err := Validate(Ge(Column("b"), IntConst(1)), s); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Add(Column("a"), IntConst(1)), "a + 1"},
		{Eq(Column("s"), StringConst("uk")), "s = 'uk'"},
		{AndOf(Gt(Column("a"), IntConst(1)), Lt(Column("a"), IntConst(5))), "(a > 1) AND (a < 5)"},
		{Negation(Eq(Column("a"), IntConst(1))), "NOT (a = 1)"},
		{IfThenElse(True, IntConst(1), IntConst(2)), "CASE WHEN true THEN 1 ELSE 2 END"},
		{&IsNull{E: Column("a")}, "a IS NULL"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEqualStructural(t *testing.T) {
	a := AndOf(Ge(Column("x"), IntConst(1)), Lt(Column("y"), IntConst(2)))
	b := AndOf(Ge(Column("X"), IntConst(1)), Lt(Column("y"), IntConst(2)))
	if !Equal(a, b) {
		t.Error("case-insensitive column equality failed")
	}
	c := AndOf(Ge(Column("x"), IntConst(1)), Lt(Column("y"), IntConst(3)))
	if Equal(a, c) {
		t.Error("different constants compared equal")
	}
	if Equal(IntConst(1), FloatConst(1)) {
		t.Error("1 and 1.0 must differ structurally")
	}
	if !Equal(Variable("v"), Variable("v")) || Equal(Variable("v"), Variable("w")) {
		t.Error("variable equality wrong")
	}
}

func TestCmpOpHelpers(t *testing.T) {
	flips := map[CmpOp]CmpOp{
		CmpEq: CmpEq, CmpNe: CmpNe, CmpLt: CmpGt, CmpLe: CmpGe, CmpGt: CmpLt, CmpGe: CmpLe,
	}
	for op, want := range flips {
		if got := op.Flip(); got != want {
			t.Errorf("%s.Flip() = %s, want %s", op, got, want)
		}
	}
	negs := map[CmpOp]CmpOp{
		CmpEq: CmpNe, CmpNe: CmpEq, CmpLt: CmpGe, CmpLe: CmpGt, CmpGt: CmpLe, CmpGe: CmpLt,
	}
	for op, want := range negs {
		if got := op.Negate(); got != want {
			t.Errorf("%s.Negate() = %s, want %s", op, got, want)
		}
	}
}

func TestColsAndVars(t *testing.T) {
	e := AndOf(Ge(Column("A"), Variable("x")), Eq(Column("b"), Add(Variable("y"), Column("a"))))
	cols := Cols(e)
	if !cols["a"] || !cols["b"] || len(cols) != 2 {
		t.Errorf("Cols = %v", cols)
	}
	vars := map[string]bool{}
	Walk(e, func(n Expr) {
		if v, ok := n.(*Var); ok {
			vars[v.Name] = true
		}
	})
	if !vars["x"] || !vars["y"] || len(vars) != 2 {
		t.Errorf("variables = %v", vars)
	}
}

func TestSize(t *testing.T) {
	if got := Size(IntConst(1)); got != 1 {
		t.Errorf("Size(1) = %d", got)
	}
	if got := Size(Add(Column("a"), IntConst(1))); got != 3 {
		t.Errorf("Size(a+1) = %d", got)
	}
}

func TestAndOfOrOfEmpty(t *testing.T) {
	if !IsTriviallyTrue(AndOf()) {
		t.Error("empty AndOf must be true")
	}
	if !IsTriviallyFalse(OrOf()) {
		t.Error("empty OrOf must be false")
	}
	x := Eq(Column("a"), IntConst(1))
	if AndOf(x) != Expr(x) || OrOf(x) != Expr(x) {
		t.Error("singleton AndOf/OrOf must return the operand")
	}
}
