package history

import (
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// ordersDB builds the paper's running example instance (Fig. 1).
func ordersDB() *storage.Database {
	s := schema.New("orders",
		schema.Col("id", types.KindInt),
		schema.Col("country", types.KindString),
		schema.Col("price", types.KindInt),
		schema.Col("fee", types.KindInt),
	)
	r := storage.NewRelation(s)
	r.Add(
		schema.Tuple{types.Int(11), types.String("UK"), types.Int(20), types.Int(5)},
		schema.Tuple{types.Int(12), types.String("UK"), types.Int(50), types.Int(5)},
		schema.Tuple{types.Int(13), types.String("US"), types.Int(60), types.Int(3)},
		schema.Tuple{types.Int(14), types.String("US"), types.Int(30), types.Int(4)},
	)
	db := storage.NewDatabase()
	db.AddRelation(r)
	return db
}

func feeOf(t *testing.T, db *storage.Database, id int64) int64 {
	t.Helper()
	r, err := db.Relation("orders")
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range r.Tuples {
		if tup[0].AsInt() == id {
			return tup[3].AsInt()
		}
	}
	t.Fatalf("no order %d", id)
	return 0
}

func paperHistory() History {
	return History{
		&Update{Rel: "orders",
			Set:   []SetClause{{Col: "fee", E: expr.IntConst(0)}},
			Where: expr.Ge(expr.Column("price"), expr.IntConst(50))},
		&Update{Rel: "orders",
			Set:   []SetClause{{Col: "fee", E: expr.Add(expr.Column("fee"), expr.IntConst(5))}},
			Where: expr.AndOf(expr.Eq(expr.Column("country"), expr.StringConst("UK")), expr.Le(expr.Column("price"), expr.IntConst(100)))},
		&Update{Rel: "orders",
			Set:   []SetClause{{Col: "fee", E: expr.Sub(expr.Column("fee"), expr.IntConst(2))}},
			Where: expr.AndOf(expr.Le(expr.Column("price"), expr.IntConst(30)), expr.Ge(expr.Column("fee"), expr.IntConst(10)))},
	}
}

// TestPaperHistorySemantics reproduces Fig. 3 exactly.
func TestPaperHistorySemantics(t *testing.T) {
	db := ordersDB()
	if err := paperHistory().Apply(db); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{11: 8, 12: 5, 13: 0, 14: 4}
	for id, fee := range want {
		if got := feeOf(t, db, id); got != fee {
			t.Errorf("order %d fee = %d, want %d", id, got, fee)
		}
	}
}

// TestPaperModifiedHistory reproduces Fig. 4: u1 with threshold 60.
func TestPaperModifiedHistory(t *testing.T) {
	h := paperHistory()
	h[0] = &Update{Rel: "orders",
		Set:   []SetClause{{Col: "fee", E: expr.IntConst(0)}},
		Where: expr.Ge(expr.Column("price"), expr.IntConst(60))}
	db := ordersDB()
	if err := h.Apply(db); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{11: 8, 12: 10, 13: 0, 14: 4}
	for id, fee := range want {
		if got := feeOf(t, db, id); got != fee {
			t.Errorf("order %d fee = %d, want %d", id, got, fee)
		}
	}
}

func TestDeleteApply(t *testing.T) {
	db := ordersDB()
	d := &Delete{Rel: "orders", Where: expr.Ge(expr.Column("price"), expr.IntConst(50))}
	if err := d.Apply(db); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("orders")
	if r.Len() != 2 {
		t.Errorf("after delete: %d tuples", r.Len())
	}
}

func TestInsertValuesApply(t *testing.T) {
	db := ordersDB()
	iv := &InsertValues{Rel: "orders", Rows: []schema.Tuple{
		{types.Int(15), types.String("DE"), types.Int(70), types.Int(2)},
	}}
	if err := iv.Apply(db); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("orders")
	if r.Len() != 5 {
		t.Errorf("after insert: %d tuples", r.Len())
	}
	// Arity mismatch must error.
	bad := &InsertValues{Rel: "orders", Rows: []schema.Tuple{{types.Int(1)}}}
	if err := bad.Apply(db); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Rejected at its second row, a statement must leave no row of it
	// behind — in a plain Apply and in the versioned tip, which a failed
	// statement never enters.
	late := &InsertValues{Rel: "orders", Rows: []schema.Tuple{
		{types.Int(16), types.String("DE"), types.Int(80), types.Int(3)},
		{types.Int(17)},
	}}
	want := db.Clone()
	if err := late.Apply(db); err == nil {
		t.Fatal("arity mismatch in a later row accepted")
	}
	requireDatabasesEqual(t, "after rejected Apply", want, db)
	vdb := storage.NewVersioned(ordersDB())
	if err := vdb.Apply(late); err == nil {
		t.Fatal("versioned store accepted an arity mismatch")
	}
	if n := vdb.NumVersions(); n != 0 {
		t.Fatalf("rejected statement logged: %d versions", n)
	}
	requireDatabasesEqual(t, "versioned tip after rejected INSERT", ordersDB(), vdb.Current())
}

func TestInsertQueryApply(t *testing.T) {
	db := ordersDB()
	// Re-insert expensive orders (a self-referencing INSERT…SELECT).
	iq := &InsertQuery{Rel: "orders", Query: &algebra.Select{
		Cond: expr.Ge(expr.Column("price"), expr.IntConst(60)),
		In:   &algebra.Scan{Rel: "orders"},
	}}
	if err := iq.Apply(db); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("orders")
	if r.Len() != 5 {
		t.Errorf("after insert-select: %d tuples", r.Len())
	}
}

func TestUpdateUnknownColumnErrors(t *testing.T) {
	db := ordersDB()
	u := &Update{Rel: "orders", Set: []SetClause{{Col: "nope", E: expr.IntConst(1)}}, Where: expr.True}
	if err := u.Apply(db); err == nil {
		t.Error("unknown SET column accepted")
	}
	u2 := &Update{Rel: "orders", Set: []SetClause{{Col: "fee", E: expr.IntConst(1)}},
		Where: expr.Ge(expr.Column("nope"), expr.IntConst(1))}
	if err := u2.Apply(db); err == nil {
		t.Error("unknown WHERE column accepted")
	}
}

func TestTupleIndependence(t *testing.T) {
	// Lemma 1: updates, deletes, constant inserts are tuple independent;
	// inserts with query are not.
	if !(&Update{}).TupleIndependent() || !(&Delete{}).TupleIndependent() || !(&InsertValues{}).TupleIndependent() {
		t.Error("Lemma 1 classes wrong")
	}
	if (&InsertQuery{}).TupleIndependent() {
		t.Error("I_Q must not be tuple independent")
	}
}

// TestTupleIndependenceSemantics verifies Def. 1 empirically: applying
// a statement to the whole relation equals the union of applying it to
// each singleton.
func TestTupleIndependenceSemantics(t *testing.T) {
	stmts := []Statement{
		&Update{Rel: "orders", Set: []SetClause{{Col: "fee", E: expr.IntConst(0)}},
			Where: expr.Ge(expr.Column("price"), expr.IntConst(50))},
		&Delete{Rel: "orders", Where: expr.Lt(expr.Column("price"), expr.IntConst(40))},
	}
	for _, st := range stmts {
		whole := ordersDB()
		if err := st.Apply(whole); err != nil {
			t.Fatal(err)
		}
		wr, _ := whole.Relation("orders")

		union := storage.NewRelation(wr.Schema)
		base, _ := ordersDB().Relation("orders")
		for _, tup := range base.Tuples {
			single := storage.NewDatabase()
			sr := storage.NewRelation(base.Schema)
			sr.Add(tup.Clone())
			single.AddRelation(sr)
			if err := st.Apply(single); err != nil {
				t.Fatal(err)
			}
			out, _ := single.Relation("orders")
			union.Tuples = append(union.Tuples, out.Tuples...)
		}
		if !wr.EqualAsBag(union) {
			t.Errorf("%s is not tuple independent:\nwhole: %s\nunion: %s", st, wr, union)
		}
	}
}

func TestNoOpFor(t *testing.T) {
	cases := []Statement{
		&Update{Rel: "t", Set: []SetClause{{Col: "a", E: expr.IntConst(1)}}, Where: expr.True},
		&Delete{Rel: "t", Where: expr.True},
		&InsertValues{Rel: "t", Rows: []schema.Tuple{{types.Int(1)}}},
		&InsertQuery{Rel: "t", Query: &algebra.Scan{Rel: "t"}},
	}
	for _, st := range cases {
		no := NoOpFor(st)
		if no == nil || !no.IsNoOp() {
			t.Errorf("NoOpFor(%T) = %v", st, no)
		}
		if !SameClass(st, no) {
			t.Errorf("NoOpFor(%T) changed class", st)
		}
	}
}

func TestSameClass(t *testing.T) {
	u := &Update{Rel: "t"}
	if SameClass(u, &Update{Rel: "other"}) {
		t.Error("different relations must not be same class")
	}
	if SameClass(u, &Delete{Rel: "t"}) {
		t.Error("update vs delete must differ")
	}
	if !SameClass(&InsertValues{Rel: "t"}, &InsertQuery{Rel: "t"}) {
		t.Error("both insert flavors form one class")
	}
}
