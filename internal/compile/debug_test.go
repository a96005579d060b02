package compile

import (
	"context"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/milp"
	"github.com/mahif/mahif/internal/types"
)

// TestModelConsistentWitness is a regression test for the big-M
// integrality trap: the solver must never return a point that violates
// its own compiled constraints (semantic witnesses may still differ
// within the documented Eps relaxation).
func TestModelConsistentWitness(t *testing.T) {
	price, fee := expr.Variable("price"), expr.Variable("fee")
	f1 := expr.Variable("f1")
	f2 := expr.Variable("f2")
	formula := expr.AndOf(
		expr.Eq(f1, expr.IfThenElse(expr.Ge(price, expr.IntConst(50)), expr.IntConst(0), fee)),
		expr.Eq(f2, expr.IfThenElse(expr.Ge(price, expr.IntConst(60)), expr.IntConst(0), fee)),
		expr.Ne(f1, f2),
	)
	kinds := map[string]types.Kind{
		"price": types.KindInt, "fee": types.KindInt, "f1": types.KindInt, "f2": types.KindInt,
	}
	c := newCompiler(kinds, Options{})
	root, err := c.compileBool(expr.Simplify(formula))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.model.AddConstraint([]milp.Term{{Var: root, Coef: 1}}, milp.EQ, 1); err != nil {
		t.Fatal(err)
	}
	res := c.model.SolveCtx(context.Background(), milp.SolveOptions{})
	if res.Status != milp.Feasible {
		t.Fatalf("status = %v, want feasible (price=55 separates f1 from f2)", res.Status)
	}
	if !c.model.CheckPoint(res.X, 1e-4) {
		t.Errorf("solver returned a point violating its own constraints: %v", res.X)
	}
}
