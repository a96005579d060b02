package progslice

import (
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

// keepSet runs both slicing algorithms and returns their keep sets.
func keepSet(t *testing.T, pair *history.PaddedPair, phiD expr.Expr) (greedy, dep []int) {
	t.Helper()
	in := &Input{Pair: pair, Schema: orderSchema(), PhiD: phiD}
	g, err := Greedy(in)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	d, err := checkedDependency(t, in)
	if err != nil {
		t.Fatalf("Dependency: %v", err)
	}
	return g.Keep, d.Keep
}

// TestExample8NotASlice is the paper's Example 8: dropping u2 from the
// fee-waiver history is not a valid slice because u2 touches tuples u1
// and u1' disagree on.
func TestExample8NotASlice(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE country = 'UK' AND price <= 100;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)
	greedy, dep := keepSet(t, pair, expr.True)
	if len(greedy) != 2 {
		t.Errorf("greedy keep = %v, want both statements", greedy)
	}
	if len(dep) != 2 {
		t.Errorf("dependency keep = %v, want both statements", dep)
	}
}

// TestIndependentUpdateSliced: an update over a provably disjoint
// region must be removed by both algorithms.
func TestIndependentUpdateSliced(t *testing.T) {
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE price < 40;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)
	greedy, dep := keepSet(t, pair, expr.True)
	if len(greedy) != 1 || greedy[0] != 0 {
		t.Errorf("greedy keep = %v, want [0]", greedy)
	}
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
	greedy, dep := keepSet(t, pair, expr.True)
	if len(greedy) != 2 || len(dep) != 2 {
		t.Fatalf("without Φ_D: greedy=%v dep=%v, want both kept", greedy, dep)
	}

	// With Φ_D: price ∈ [0, 45): no tuple reaches the modified updates,
	// but u2 still fires on [40,45)… and since neither u1 nor u1' can
	// fire at all, u2 applies identically in both histories: slice to
	// just the modified statement.
	phiD := expr.AndOf(
		expr.Ge(expr.Variable("x0_price"), expr.IntConst(0)),
		expr.Lt(expr.Variable("x0_price"), expr.IntConst(45)),
	)
	greedy, dep = keepSet(t, pair, phiD)
	if len(greedy) != 1 {
		t.Errorf("greedy with Φ_D keep = %v, want [0]", greedy)
	}
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
	greedy, dep := keepSet(t, pair, expr.True)
	want := []int{0, 1}
	for name, got := range map[string][]int{"greedy": greedy, "dependency": dep} {
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s keep = %v, want %v", name, got, want)
		}
	}
}

// TestChainedDependence: u2 writes price, u3 reads it — removing u2
// would change whether u3 fires on modified tuples, so both stay.
func TestChainedDependence(t *testing.T) {
	if testing.Short() {
		t.Skip("chained-dependence slicing is solver-heavy")
	}
	pair := pairOf(t, `
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET price = price + 20 WHERE price >= 45;
		UPDATE orders SET fee = fee + 1 WHERE price >= 65;
	`, 0, `UPDATE orders SET fee = 0 WHERE price >= 60`)
	greedy, _ := keepSet(t, pair, expr.True)
	if len(greedy) != 3 {
		t.Errorf("greedy keep = %v, want all three (chained dependence)", greedy)
	}
}

// TestSliceValidity is the semantic check behind Thm. 4/5: executing
// the sliced histories over every tuple of a concrete database must
// produce the same delta as the full histories.
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
		for _, algo := range []string{"greedy", "dependency"} {
			in := &Input{Pair: pair, Schema: orderSchema(), PhiD: expr.True}
			var keep []int
			var err error
			if algo == "greedy" {
				var res *Result
				res, err = Greedy(in)
				if res != nil {
					keep = res.Keep
				}
			} else {
				var res *Result
				res, err = checkedDependency(t, in)
				if res != nil {
					keep = res.Keep
				}
			}
			if err != nil {
				t.Fatalf("history %d %s: %v", hi, algo, err)
			}
			assertSliceValid(t, pair, keep)
		}
	}
}

// assertSliceValid brute-forces Def. 4 over a grid of single tuples.
func assertSliceValid(t *testing.T, pair *history.PaddedPair, keep []int) {
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
					t.Fatalf("slice %v invalid for tuple %s: full delta %q, sliced %q",
						keep, tuple, dFull, dSlice)
				}
			}
		}
	}
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
