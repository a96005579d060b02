package progslice

import (
	"fmt"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/types"
)

func orderSchema() *schema.Schema {
	return schema.New("orders",
		schema.Col("country", types.KindString),
		schema.Col("price", types.KindInt),
		schema.Col("fee", types.KindInt),
	)
}

func pairOf(t *testing.T, histSQL string, pos int, replSQL string) *history.PaddedPair {
	t.Helper()
	h, err := sql.ParseStatements(histSQL)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := history.ApplyModifications(h, []history.Modification{
		history.Replace{Pos: pos, Stmt: sql.MustParseStatement(replSQL)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// keepSet runs the dependency slice (checked against the per-test
// oracle) and returns its keep set.
func keepSet(t *testing.T, pair *history.PaddedPair, phiD expr.Expr) []int {
	t.Helper()
	in := &Input{Pair: pair, Schema: orderSchema(), PhiD: phiD}
	d, err := checkedDependency(t, in)
	if err != nil {
		t.Fatalf("Dependency: %v", err)
	}
	return d.Keep
}

// TestExample8NotASlice is the paper's Example 8: dropping u2 from the
// fee-waiver history is not a valid slice because u2 touches tuples u1
// and u1' disagree on.
func TestExample8NotASlice(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE country = 'UK' AND price <= 100;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)
	dep := keepSet(t, pair, expr.True)
	if len(dep) != 2 {
		t.Errorf("dependency keep = %v, want both statements", dep)
	}
}

// TestIndependentUpdateSliced: an update over a provably disjoint
// region must be removed.
func TestIndependentUpdateSliced(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE price < 40;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)
	dep := keepSet(t, pair, expr.True)
	if len(dep) != 1 || dep[0] != 0 {
		t.Errorf("dependency keep = %v, want [0]", dep)
	}
}

// TestCompressionEnablesSlicing: with Φ_D restricting prices to < 45,
// even an overlapping-looking condition becomes independent.
func TestCompressionEnablesSlicing(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE price >= 40;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)

	// Unconstrained: a tuple with price ≥ 50 satisfies both conditions,
	// so u2 must stay.
	dep := keepSet(t, pair, expr.True)
	if len(dep) != 2 {
		t.Fatalf("without Φ_D: keep = %v, want both kept", dep)
	}

	// With Φ_D: price ∈ [0, 45): no tuple reaches the modified updates,
	// but u2 still fires on [40,45)… and since neither u1 nor u1' can
	// fire at all, u2 applies identically in both histories: slice to
	// just the modified statement.
	phiD := expr.AndOf(
		expr.Ge(expr.Variable("x0_price"), expr.IntConst(0)),
		expr.Lt(expr.Variable("x0_price"), expr.IntConst(45)),
	)
	dep = keepSet(t, pair, phiD)
	if len(dep) != 1 {
		t.Errorf("dependency with Φ_D keep = %v, want [0]", dep)
	}
}

// TestDeleteDependence: a delete whose condition overlaps the modified
// update must be kept; a disjoint one sliced.
func TestDeleteDependence(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		DELETE FROM orders WHERE price >= 80;
		DELETE FROM orders WHERE price < 30;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)
	if got := keepSet(t, pair, expr.True); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("dependency keep = %v, want [0 1]", got)
	}
}

// TestChainedDependence: u2 writes price, u3 reads it — removing u2
// would change whether u3 fires on modified tuples, so both stay (Def.
// 4: a tuple at price 50 gets fee 1 in H and, by u1', not in H[M] — but
// only because u2 lifts it to 70).
func TestChainedDependence(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET price = price + 20 WHERE price >= 45;
		UPDATE orders SET fee = fee + 1 WHERE price >= 65;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)
	keep := keepSet(t, pair, expr.True)
	if len(keep) != 3 {
		t.Errorf("dependency keep = %v, want all three (chained dependence)", keep)
	}
	assertSliceValid(t, pair, keep)
	assertSliceInvalid(t, pair, []int{0, 1})
	assertSliceInvalid(t, pair, []int{0, 2})
}

// TestSliceValidity is the semantic check behind Thm. 5: executing the
// dependency-sliced histories over every tuple of a concrete database
// must produce the same delta as the full histories.
func TestSliceValidity(t *testing.T) {
	if testing.Short() {
		t.Skip("semantic slice validation reenacts every history variant")
	}
	histories := []struct {
		hist string
		repl string
	}{
		{`
			UPDATE orders SET fee = 0 WHERE price >= 50;
			UPDATE orders SET fee = fee + 5 WHERE price < 40;
			UPDATE orders SET fee = fee + 1 WHERE country = 'UK' AND price >= 55;
			DELETE FROM orders WHERE fee >= 30;
		`, `UPDATE orders SET fee = 0 WHERE price >= 60`},
		{`
			DELETE FROM orders WHERE price < 10;
			UPDATE orders SET fee = fee + 2 WHERE price >= 20;
			UPDATE orders SET fee = 1 WHERE price < 5;
		`, `DELETE FROM orders WHERE price < 15`},
	}
	for hi, hc := range histories {
		pair := pairOf(t, hc.hist, 0, hc.repl)
		res, err := checkedDependency(t, &Input{Pair: pair, Schema: orderSchema(), PhiD: expr.True})
		if err != nil {
			t.Fatalf("history %d: %v", hi, err)
		}
		assertSliceValid(t, pair, res.Keep)
	}
}

// assertSliceValid brute-forces Def. 4 over a grid of single tuples.
func assertSliceValid(t *testing.T, pair *history.PaddedPair, keep []int) {
	t.Helper()
	if bad := sliceCounterexample(t, pair, keep); bad != "" {
		t.Fatalf("slice %v invalid: %s", keep, bad)
	}
}

// assertSliceInvalid requires some tuple of the grid to tell the slice
// keep apart from the full histories.
func assertSliceInvalid(t *testing.T, pair *history.PaddedPair, keep []int) {
	t.Helper()
	if sliceCounterexample(t, pair, keep) == "" {
		t.Fatalf("slice %v agrees with the full histories on every tuple, want a counterexample", keep)
	}
}

// sliceCounterexample returns the first grid tuple whose delta under
// the sliced histories differs from the full histories', or "".
func sliceCounterexample(t *testing.T, pair *history.PaddedPair, keep []int) string {
	t.Helper()
	s := orderSchema()
	slicedO := pair.Orig.Restrict(keep)
	slicedM := pair.Mod.Restrict(keep)
	for _, country := range []string{"UK", "US"} {
		for price := int64(0); price <= 100; price += 5 {
			for fee := int64(0); fee <= 30; fee += 6 {
				tuple := schema.Tuple{types.String(country), types.Int(price), types.Int(fee)}
				dFull := singleTupleDelta(t, s, tuple, pair.Orig, pair.Mod)
				dSlice := singleTupleDelta(t, s, tuple, slicedO, slicedM)
				if dFull != dSlice {
					return fmt.Sprintf("tuple %s: full delta %q, sliced %q", tuple, dFull, dSlice)
				}
			}
		}
	}
	return ""
}

// singleTupleDelta runs both histories over a singleton database and
// renders the delta canonically.
func singleTupleDelta(t *testing.T, s *schema.Schema, tuple schema.Tuple, ho, hm history.History) string {
	t.Helper()
	run := func(h history.History) string {
		db := newSingleton(s, tuple)
		if err := h.Apply(db); err != nil {
			t.Fatal(err)
		}
		rel, _ := db.Relation(s.Relation)
		if rel.Len() == 0 {
			return "∅"
		}
		return rel.Tuples[0].Key()
	}
	a, b := run(ho), run(hm)
	if a == b {
		return ""
	}
	return "-" + a + "/+" + b
}
