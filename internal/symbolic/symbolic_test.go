package symbolic

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

func orderSchema() *schema.Schema {
	return schema.New("orders",
		schema.Col("country", types.KindString),
		schema.Col("price", types.KindInt),
		schema.Col("fee", types.KindInt),
	)
}

func TestNewBaseState(t *testing.T) {
	st := NewBaseState(orderSchema())
	if len(st.Vals) != 3 {
		t.Fatalf("vals = %v", st.Vals)
	}
	v, ok := st.Vals["price"].(*expr.Var)
	if !ok || v.Name != BaseVar("price") {
		t.Errorf("price symbol = %v", st.Vals["price"])
	}
	if st.Kinds[BaseVar("country")] != types.KindString {
		t.Errorf("country kind = %v", st.Kinds[BaseVar("country")])
	}
	if !expr.IsTriviallyTrue(st.Local) {
		t.Errorf("local = %s", st.Local)
	}
}

// TestExecExample6 reproduces the paper's Example 6 / Fig. 10: after
// u1, u2, the fee is a fresh variable constrained by two conditional
// defining equalities.
func TestExecExample6(t *testing.T) {
	h, _ := sql.ParseStatements(`
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE country = 'UK' AND price <= 100;
	`)
	st, err := Exec(NewBaseState(orderSchema()), h, "h")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Global) != 2 {
		t.Fatalf("global conjuncts = %d, want 2", len(st.Global))
	}
	fee, ok := st.Vals["fee"].(*expr.Var)
	if !ok || fee.Name != "x_h_fee_2" {
		t.Errorf("final fee symbol = %v", st.Vals["fee"])
	}
	// Unmodified attributes keep their base variables.
	if p := st.Vals["price"].(*expr.Var); p.Name != BaseVar("price") {
		t.Errorf("price symbol churned: %v", p)
	}
	// The first conjunct defines x_h_fee_1 from the base fee.
	first := st.Global[0].String()
	if !strings.Contains(first, "x_h_fee_1") || !strings.Contains(first, BaseVar("price")) {
		t.Errorf("first conjunct = %s", first)
	}
}

func TestExecDeleteStrengthensLocal(t *testing.T) {
	h, _ := sql.ParseStatements(`DELETE FROM orders WHERE price < 30`)
	st, err := Exec(NewBaseState(orderSchema()), h, "h")
	if err != nil {
		t.Fatal(err)
	}
	if expr.IsTriviallyTrue(st.Local) {
		t.Errorf("local condition unchanged by delete: %s", st.Local)
	}
	if len(st.Global) != 0 {
		t.Errorf("delete must not add global conjuncts: %v", st.Global)
	}
}

func TestExecNoOpLeavesStateUntouched(t *testing.T) {
	noop := history.History{&history.Update{Rel: "orders", Set: nil, Where: expr.False}}
	st, err := Exec(NewBaseState(orderSchema()), noop, "h")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Global) != 0 {
		t.Errorf("no-op added conjuncts: %v", st.Global)
	}
	if len(st.Steps) != 1 {
		t.Errorf("no-op must still record a step")
	}
}

func TestExecRejectsInserts(t *testing.T) {
	h := history.History{&history.InsertValues{Rel: "orders"}}
	if _, err := Exec(NewBaseState(orderSchema()), h, "h"); err == nil {
		t.Error("inserts must be rejected (stripped by the engine)")
	}
}

func TestExecSharedBaseDistinctFresh(t *testing.T) {
	h, _ := sql.ParseStatements(`UPDATE orders SET fee = 0 WHERE price >= 50`)
	base := NewBaseState(orderSchema())
	a, err := Exec(base, h, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exec(base, h, "b")
	if err != nil {
		t.Fatal(err)
	}
	if expr.Equal(a.Vals["fee"], b.Vals["fee"]) {
		t.Error("fresh variables must differ between tags")
	}
	if !expr.Equal(a.Vals["price"], b.Vals["price"]) {
		t.Error("base variables must be shared")
	}
	if len(base.Global) != 0 {
		t.Error("Exec mutated the base state")
	}
}

// TestPossibleWorldSemantics is Theorem 3 in executable form: for
// random concrete tuples, evaluating the history concretely agrees with
// evaluating the symbolic result under the induced assignment.
func TestPossibleWorldSemantics(t *testing.T) {
	h, _ := sql.ParseStatements(`
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE country = 'UK' AND price <= 100;
		DELETE FROM orders WHERE fee >= 10;
		UPDATE orders SET fee = fee * 2 WHERE price < 25;
	`)
	sym, err := Exec(NewBaseState(orderSchema()), h, "h")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	countries := []string{"UK", "US"}
	for trial := 0; trial < 300; trial++ {
		tuple := schema.Tuple{
			types.String(countries[rng.Intn(2)]),
			types.Int(int64(rng.Intn(120))),
			types.Int(int64(rng.Intn(15))),
		}
		// Concrete execution over the singleton database.
		db := storage.NewDatabase()
		rel := storage.NewRelation(orderSchema())
		rel.Add(tuple.Clone())
		db.AddRelation(rel)
		if err := h.Apply(db); err != nil {
			t.Fatal(err)
		}
		out, _ := db.Relation("orders")

		// Symbolic evaluation under the assignment λ(tuple): solve the
		// defining equalities in order.
		env := map[string]types.Value{
			BaseVar("country"): tuple[0],
			BaseVar("price"):   tuple[1],
			BaseVar("fee"):     tuple[2],
		}
		for _, g := range sym.Global {
			eq := g.(*expr.Cmp)
			v := eq.L.(*expr.Var)
			val, err := expr.Eval(eq.R, &expr.Env{Vars: env})
			if err != nil {
				t.Fatal(err)
			}
			env[v.Name] = val
		}
		alive, err := expr.Eval(sym.Local, &expr.Env{Vars: env})
		if err != nil {
			t.Fatal(err)
		}
		if alive.IsTrue() != (out.Len() == 1) {
			t.Fatalf("trial %d: existence mismatch for %s: symbolic %v, concrete %d tuples",
				trial, tuple, alive, out.Len())
		}
		if out.Len() == 1 {
			for col, sym := range sym.Vals {
				want := out.Tuples[0][out.Schema.ColIndex(col)]
				got, err := expr.Eval(sym, &expr.Env{Vars: env})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d: %s mismatch for %s: symbolic %v, concrete %v",
						trial, col, tuple, got, want)
				}
			}
		}
	}
}

func TestSameResultSkipsIdenticalColumns(t *testing.T) {
	h, _ := sql.ParseStatements(`UPDATE orders SET fee = 0 WHERE price >= 50`)
	base := NewBaseState(orderSchema())
	a, _ := Exec(base, h, "a")
	b, _ := Exec(base, h, "b")
	cond := SameResult(a, b)
	// Only the fee columns differ symbolically; country/price must not
	// appear in the equality.
	expr.Walk(cond, func(n expr.Expr) {
		if v, ok := n.(*expr.Var); ok && v.Name == BaseVar("country") {
			t.Errorf("identical column leaked into SameResult: %s", cond)
		}
	})
}

func TestMergeKinds(t *testing.T) {
	h, _ := sql.ParseStatements(`UPDATE orders SET fee = 0 WHERE price >= 50`)
	base := NewBaseState(orderSchema())
	a, _ := Exec(base, h, "a")
	b, _ := Exec(base, h, "b")
	kinds := MergeKinds(a, b)
	if kinds["x_a_fee_1"] != types.KindInt || kinds["x_b_fee_1"] != types.KindInt {
		t.Errorf("fresh variable kinds missing: %v", kinds)
	}
	if kinds[BaseVar("country")] != types.KindString {
		t.Errorf("base kind missing: %v", kinds)
	}
}
