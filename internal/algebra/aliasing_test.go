package algebra

import (
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
)

// TestEvalDoesNotMutateSharedTuples proves the scan aliasing invariant
// documented at Eval's Scan case: Scan shares the live store's tuple
// slice, so no operator may ever write into a tuple it did not
// allocate. The batch engine's shared read-only snapshots rely on this
// (the naive algorithm's explicit Clone is the copy-on-write boundary).
func TestEvalDoesNotMutateSharedTuples(t *testing.T) {
	db := testDB()
	before := map[string][]schema.Tuple{}
	for _, name := range db.RelationNames() {
		r, _ := db.Relation(name)
		for _, tp := range r.Tuples {
			before[name] = append(before[name], tp.Clone())
		}
	}

	rSch, _ := OutputSchema(&Scan{Rel: "r"}, db)
	// Every operator once, including the projection rewriting columns
	// in place — the case a buggy executor would use to scribble over
	// shared rows.
	proj := make([]NamedExpr, rSch.Arity())
	for i, c := range rSch.Columns {
		proj[i] = NamedExpr{Name: c.Name, E: expr.Column(c.Name)}
	}
	proj[1].E = expr.Add(expr.Column("b"), expr.IntConst(1))
	queries := []Query{
		&Scan{Rel: "r"},
		&Select{Cond: expr.Gt(expr.Column("b"), expr.IntConst(10)), In: &Scan{Rel: "r"}},
		&Project{Exprs: proj, In: &Select{Cond: expr.Ge(expr.Column("a"), expr.IntConst(1)), In: &Scan{Rel: "r"}}},
		&Union{L: &Scan{Rel: "r"}, R: &Project{Exprs: proj, In: &Scan{Rel: "r"}}},
		&Join{L: &Scan{Rel: "r"}, R: &Scan{Rel: "s"}, Cond: expr.Eq(expr.Column("a"), expr.Column("c"))},
	}
	for _, q := range queries {
		if _, err := Eval(q, db); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for _, name := range db.RelationNames() {
		r, _ := db.Relation(name)
		if len(r.Tuples) != len(before[name]) {
			t.Fatalf("relation %s changed cardinality", name)
		}
		for i, tp := range r.Tuples {
			if !tp.Equal(before[name][i]) {
				t.Fatalf("relation %s tuple %d mutated by evaluation: %s, was %s", name, i, tp, before[name][i])
			}
		}
	}
}
