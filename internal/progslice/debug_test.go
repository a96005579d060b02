package progslice

import (
	"context"
	"testing"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/symbolic"
	"github.com/mahif/mahif/internal/types"
)

// TestSliceRejectionRegression is the regression test for the first
// end-to-end slicing bug: with the fee-waiver history of Example 8,
// the candidate slice {u1} must be rejected — a UK tuple with price in
// [50,60) distinguishes the histories only when u2 runs — so the
// dependency slice keeps u2, and the "histories can differ" check must
// find that witness world.
func TestSliceRejectionRegression(t *testing.T) {
	s := schema.New("orders",
		schema.Col("country", types.KindString),
		schema.Col("price", types.KindInt),
		schema.Col("fee", types.KindInt),
	)
	u1 := &history.Update{Rel: "orders",
		Set:   []history.SetClause{{Col: "fee", E: expr.IntConst(0)}},
		Where: expr.Ge(expr.Column("price"), expr.IntConst(50))}
	u1p := &history.Update{Rel: "orders",
		Set:   []history.SetClause{{Col: "fee", E: expr.IntConst(0)}},
		Where: expr.Ge(expr.Column("price"), expr.IntConst(60))}
	u2 := &history.Update{Rel: "orders",
		Set:   []history.SetClause{{Col: "fee", E: expr.Add(expr.Column("fee"), expr.IntConst(5))}},
		Where: expr.AndOf(expr.Eq(expr.Column("country"), expr.StringConst("UK")), expr.Le(expr.Column("price"), expr.IntConst(100)))}

	pair := &history.PaddedPair{
		Orig:        history.History{u1, u2},
		Mod:         history.History{u1p, u2},
		ModifiedPos: []int{0},
	}
	res, err := DependencyCtx(context.Background(), &Input{Pair: pair, Schema: s, PhiD: expr.True})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keep) != 2 {
		t.Fatalf("dependency slice kept %v, want [0 1] (Example 8: {0} is not a slice)", res.Keep)
	}

	// The full histories must be distinguishable, with a valid witness.
	base := symbolic.NewBaseState(s)
	full0, err := symbolic.Exec(base, pair.Orig, "h")
	if err != nil {
		t.Fatal(err)
	}
	full1, err := symbolic.Exec(base, pair.Mod, "m")
	if err != nil {
		t.Fatal(err)
	}
	diff := expr.AndOf(expr.AndOf(full0.Global...), expr.AndOf(full1.Global...),
		expr.Ne(full0.Vals["fee"], full1.Vals["fee"]))
	out, err := compile.SatisfiableCtx(context.Background(), diff, symbolic.MergeKinds(full0, full1), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Sat || !out.Definitive {
		t.Fatalf("expected a distinguishing world, got %+v", out)
	}
	// The witness lives in the solver's Eps-relaxed real semantics, so
	// exact re-evaluation may disagree at sub-Eps resolution; the price
	// coordinate must still land in the distinguishing band [50, 60).
	p, ok := out.Model["x0_price"]
	if !ok {
		t.Fatal("witness lacks the price coordinate")
	}
	if f := p.AsFloat(); f < 50-1 || f >= 60+1 {
		t.Errorf("witness price = %v, want within [50, 60)", f)
	}
}
