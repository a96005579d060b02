package expr

import (
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

func TestSimplifyConstantFolding(t *testing.T) {
	cases := []struct {
		in   Expr
		want Expr
	}{
		{Add(IntConst(2), IntConst(3)), IntConst(5)},
		{Mul(IntConst(4), IntConst(2)), IntConst(8)},
		{Ge(IntConst(5), IntConst(3)), True},
		{Lt(IntConst(5), IntConst(3)), False},
		{Eq(StringConst("a"), StringConst("a")), True},
		{Add(Column("x"), IntConst(0)), Column("x")},
		{Mul(Column("x"), IntConst(1)), Column("x")},
		{Sub(Column("x"), IntConst(0)), Column("x")},
	}
	for _, c := range cases {
		if got := Simplify(c.in); !Equal(got, c.want) {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyBooleanIdentities(t *testing.T) {
	x := Ge(Column("a"), IntConst(1))
	cases := []struct {
		in   Expr
		want Expr
	}{
		{AndOf(True, x), x},
		{AndOf(x, True), x},
		{AndOf(False, x), False},
		{OrOf(False, x), x},
		{OrOf(True, x), True},
		{AndOf(x, x), x},
		{OrOf(x, x), x},
		{Negation(Negation(x)), x},
		{Negation(True), False},
		{Negation(Ge(Column("a"), IntConst(1))), Lt(Column("a"), IntConst(1))},
	}
	for _, c := range cases {
		if got := Simplify(c.in); !Equal(got, c.want) {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyIf(t *testing.T) {
	cases := []struct {
		in   Expr
		want Expr
	}{
		{IfThenElse(True, Column("a"), Column("b")), Column("a")},
		{IfThenElse(False, Column("a"), Column("b")), Column("b")},
		{IfThenElse(Ge(Column("x"), IntConst(1)), Column("a"), Column("a")), Column("a")},
	}
	for _, c := range cases {
		if got := Simplify(c.in); !Equal(got, c.want) {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyIsNull(t *testing.T) {
	if got := Simplify(&IsNull{E: Constant(types.Null())}); !Equal(got, True) {
		t.Errorf("NULL IS NULL simplified to %s", got)
	}
	if got := Simplify(&IsNull{E: IntConst(1)}); !Equal(got, False) {
		t.Errorf("1 IS NULL simplified to %s", got)
	}
}

func TestConjuncts(t *testing.T) {
	a, b, c := Column("a"), Column("b"), Column("c")
	conj := Conjuncts(AndOf(a, b, c))
	if len(conj) != 3 {
		t.Errorf("Conjuncts = %v", conj)
	}
	if len(Conjuncts(a)) != 1 {
		t.Error("single expr must be its own conjunct")
	}
}

// randomExpr builds a random condition over integer columns a, b.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return IntConst(int64(r.Intn(20) - 10))
		case 1:
			return Column("a")
		default:
			return Column("b")
		}
	}
	switch r.Intn(6) {
	case 0:
		return Add(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return Sub(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return Mul(randomExpr(r, depth-1), IntConst(int64(r.Intn(5))))
	default:
		return IfThenElse(randomCond(r, depth-1), randomExpr(r, depth-1), randomExpr(r, depth-1))
	}
}

func randomCond(r *rand.Rand, depth int) Expr {
	if depth == 0 {
		ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
		return &Cmp{Op: ops[r.Intn(len(ops))], L: randomExpr(r, 0), R: randomExpr(r, 0)}
	}
	switch r.Intn(4) {
	case 0:
		return &And{L: randomCond(r, depth-1), R: randomCond(r, depth-1)}
	case 1:
		return &Or{L: randomCond(r, depth-1), R: randomCond(r, depth-1)}
	case 2:
		return &Not{E: randomCond(r, depth-1)}
	default:
		return randomCond(r, 0)
	}
}

// TestSimplifyPreservesSemantics is the core property test: over random
// expressions and random non-NULL tuples, Simplify must never change
// the evaluation result.
func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt))
	for i := 0; i < 2000; i++ {
		var e Expr
		if i%2 == 0 {
			e = randomExpr(r, 3)
		} else {
			e = randomCond(r, 3)
		}
		simp := Simplify(e)
		tup := schema.Tuple{types.Int(int64(r.Intn(20) - 10)), types.Int(int64(r.Intn(20) - 10))}
		env := TupleEnv(s, tup)
		v1, err1 := Eval(e, env)
		v2, err2 := Eval(simp, env)
		if (err1 == nil) != (err2 == nil) {
			// Simplification may remove an erroring subexpression (e.g.
			// division by zero in a dead branch); it must never add one.
			if err2 != nil {
				t.Fatalf("Simplify(%s) = %s introduced error: %v", e, simp, err2)
			}
			continue
		}
		if err1 != nil {
			continue
		}
		if !v1.Equal(v2) {
			t.Fatalf("Simplify changed semantics:\n  %s = %v\n  %s = %v\n  tuple %v",
				e, v1, simp, v2, tup)
		}
	}
}

// TestSimplifyIdempotent: simplifying twice equals simplifying once.
func TestSimplifyIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		e := randomCond(r, 3)
		once := Simplify(e)
		twice := Simplify(once)
		if !Equal(once, twice) {
			t.Fatalf("not idempotent:\n  once  %s\n  twice %s", once, twice)
		}
	}
}

// TestSimplifyAndFoldRebuildsSimplify: folding SimplifyAnd over the
// simplified conjuncts of a left-deep conjunction — the leading one
// simplified once and shared — gives Simplify of the whole conjunction,
// constants that fold it away included.
func TestSimplifyAndFoldRebuildsSimplify(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		conj := make([]Expr, 1+r.Intn(5))
		for j := range conj {
			switch r.Intn(8) {
			case 0:
				conj[j] = True
			case 1:
				conj[j] = BoolConst(r.Intn(4) != 0)
			case 2:
				if j > 0 {
					conj[j] = conj[r.Intn(j)] // a repeat: l ∧ l ⇒ l
					continue
				}
				conj[j] = randomCond(r, 2)
			default:
				conj[j] = randomCond(r, 2)
			}
		}
		fold := Simplify(conj[0])
		for _, c := range conj[1:] {
			fold = SimplifyAnd(fold, Simplify(c))
		}
		if want := Simplify(AndOf(conj...)); fold.String() != want.String() || !Equal(fold, want) {
			t.Fatalf("fold %s, Simplify of the whole %s", fold, want)
		}
	}
}
