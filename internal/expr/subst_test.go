package expr

import (
	"testing"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

func TestSubstCols(t *testing.T) {
	// (fee >= 10)[fee ← if price >= 50 then 0 else fee]
	cond := Ge(Column("fee"), IntConst(10))
	repl := map[string]Expr{
		"fee": IfThenElse(Ge(Column("price"), IntConst(50)), IntConst(0), Column("fee")),
	}
	got := SubstCols(cond, repl)
	want := Ge(IfThenElse(Ge(Column("price"), IntConst(50)), IntConst(0), Column("fee")), IntConst(10))
	if !Equal(got, want) {
		t.Errorf("SubstCols = %s, want %s", got, want)
	}
	// Original untouched.
	if !Equal(cond, Ge(Column("fee"), IntConst(10))) {
		t.Error("SubstCols mutated its input")
	}
}

func TestSubstColsCaseInsensitive(t *testing.T) {
	got := SubstCols(Column("FEE"), map[string]Expr{"fee": IntConst(1)})
	if !Equal(got, IntConst(1)) {
		t.Errorf("case-insensitive substitution failed: %s", got)
	}
}

func TestSubstColsNoMapping(t *testing.T) {
	e := Add(Column("a"), Column("b"))
	got := SubstCols(e, map[string]Expr{"c": IntConst(1)})
	if got != Expr(e) {
		t.Error("substitution without hits must return the input unchanged")
	}
}

func TestRenameCols(t *testing.T) {
	e := AndOf(Ge(Column("a"), IntConst(1)), Eq(Column("b"), Column("a")))
	got := RenameCols(e, map[string]string{"a": "x"})
	want := AndOf(Ge(Column("x"), IntConst(1)), Eq(Column("b"), Column("x")))
	if !Equal(got, want) {
		t.Errorf("RenameCols = %s, want %s", got, want)
	}
}

// TestSubstitutionLemma checks the semantic substitution property the
// push-down rules rely on: eval(e[A←r], t) == eval(e, t[A ↦ eval(r,t)]).
func TestSubstitutionLemma(t *testing.T) {
	s := schema.New("t", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt))
	e := AndOf(Ge(Column("a"), IntConst(5)), Lt(Add(Column("a"), Column("b")), IntConst(20)))
	r := Mul(Column("b"), IntConst(2))

	for av := int64(0); av < 10; av++ {
		for bv := int64(0); bv < 10; bv++ {
			tup := schema.Tuple{types.Int(av), types.Int(bv)}
			rv, err := Eval(r, TupleEnv(s, tup))
			if err != nil {
				t.Fatal(err)
			}
			lhs, err := Eval(SubstCols(e, map[string]Expr{"a": r}), TupleEnv(s, tup))
			if err != nil {
				t.Fatal(err)
			}
			rhs, err := Eval(e, TupleEnv(s, schema.Tuple{rv, types.Int(bv)}))
			if err != nil {
				t.Fatal(err)
			}
			if !lhs.Equal(rhs) {
				t.Fatalf("substitution lemma violated at a=%d b=%d: %v vs %v", av, bv, lhs, rhs)
			}
		}
	}
}
