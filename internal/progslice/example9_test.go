package progslice

import (
	"context"
	"testing"

	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/symbolic"
)

// TestExample9DependencyDetection reproduces the paper's Example 9: in
// the running-example history, u2 (the UK surcharge) is dependent on
// the modified u1 because a possible world exists — e.g.
// (UK, 50, 5) — in which a tuple is modified by both updates.
func TestExample9DependencyDetection(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE country = 'UK' AND price <= 100;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)

	in := &Input{Pair: pair, Schema: orderSchema(), PhiD: expr.True}
	res, err := checkedDependency(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keep) != 2 {
		t.Fatalf("u2 must be detected as dependent; keep = %v", res.Keep)
	}
	if res.Stats.Tests != 1 {
		t.Errorf("expected exactly one solver test, got %d", res.Stats.Tests)
	}
}

// TestExample9WitnessWorld mirrors the example's constructive argument:
// the conjunction "affected by u1/u1' and touched by u2" must have a
// concrete possible world, and the solver's witness must satisfy both
// conditions when evaluated concretely.
func TestExample9WitnessWorld(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE country = 'UK' AND price <= 100;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)

	base := symbolic.NewBaseState(orderSchema())
	orig, err := symbolic.Exec(base, pair.Orig, "h")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := symbolic.Exec(base, pair.Mod, "m")
	if err != nil {
		t.Fatal(err)
	}
	formula := expr.AndOf(
		expr.OrOf(orig.Steps[0].Theta, mod.Steps[0].Theta),
		orig.Steps[1].Theta,
	)
	out, err := compile.SatisfiableCtx(context.Background(), formula, symbolic.MergeKinds(orig, mod), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Sat || !out.Definitive {
		t.Fatalf("expected a witness world, got %+v", out)
	}
	v, err := expr.Eval(formula, &expr.Env{Vars: out.Model})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsTrue() {
		t.Errorf("witness %v does not satisfy the dependency condition", out.Model)
	}
	// The paper's world: country=UK, price in [50,100]. Check the
	// witness lies in that region (price ≥ 50 from u1's condition since
	// the disjunct chosen must make some branch true, and u2 requires
	// UK ∧ price ≤ 100).
	if c := out.Model["x0_country"]; c.AsString() != "UK" {
		t.Errorf("witness country = %v, want UK", c)
	}
	if p := out.Model["x0_price"].AsFloat(); p < 50-1 || p > 100+1 {
		t.Errorf("witness price = %v, want within [50,100]", p)
	}
}

// TestDependencyStatsScale: the dependency test must issue exactly one
// solver query per non-modified, non-noop statement.
func TestDependencyStatsScale(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 1 WHERE price >= 90;
		UPDATE orders SET fee = 2 WHERE price >= 80;
		UPDATE orders SET fee = 3 WHERE price >= 70;
		UPDATE orders SET fee = 4 WHERE price >= 60;
	`, 0, `UPDATE orders SET fee = 1 WHERE price >= 95`)
	in := &Input{Pair: pair, Schema: orderSchema(), PhiD: expr.True}
	res, err := checkedDependency(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tests != 3 {
		t.Errorf("tests = %d, want 3", res.Stats.Tests)
	}
	// All later thresholds overlap [90,∞): everything is dependent.
	if len(res.Keep) != 4 {
		t.Errorf("keep = %v, want all four", res.Keep)
	}
}
