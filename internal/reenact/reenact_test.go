package reenact

import (
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// ordersDB is the running example instance (Fig. 1).
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

// assertReenactsFaithfully checks R_H(D) == H(D), the core guarantee of
// Def. 3.
func assertReenactsFaithfully(t *testing.T, db *storage.Database, h history.History) {
	t.Helper()
	qs, err := Queries(h, db, nil)
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	applied := db.Clone()
	if err := h.Apply(applied); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for rel := range h.Relations() {
		got, err := algebra.Eval(qs[rel], db)
		if err != nil {
			t.Fatalf("Eval(%s): %v", qs[rel], err)
		}
		want, err := applied.Relation(rel)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) {
			t.Errorf("reenactment of %s diverges:\nreenacted: %swant: %s\nquery: %s",
				rel, got, want, qs[rel])
		}
	}
}

func TestReenactPaperHistory(t *testing.T) {
	h, err := sql.ParseStatements(`
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE country = 'UK' AND price <= 100;
		UPDATE orders SET fee = fee - 2 WHERE price <= 30 AND fee >= 10;
	`)
	if err != nil {
		t.Fatal(err)
	}
	assertReenactsFaithfully(t, ordersDB(), h)
}

func TestReenactDelete(t *testing.T) {
	h, _ := sql.ParseStatements(`
		DELETE FROM orders WHERE price < 30;
		UPDATE orders SET fee = fee + 1 WHERE country = 'US';
	`)
	assertReenactsFaithfully(t, ordersDB(), h)
}

func TestReenactInsertValues(t *testing.T) {
	h, _ := sql.ParseStatements(`
		INSERT INTO orders VALUES (15, 'DE', 80, 6);
		UPDATE orders SET fee = 0 WHERE price >= 70;
	`)
	assertReenactsFaithfully(t, ordersDB(), h)
}

func TestReenactInsertQuerySelfReference(t *testing.T) {
	// The query must see the reenacted state of its inputs at the
	// insert's position, not the base state.
	h, _ := sql.ParseStatements(`
		UPDATE orders SET fee = 99 WHERE price >= 60;
		INSERT INTO orders SELECT id + 100, country, price, fee FROM orders WHERE fee = 99;
		UPDATE orders SET fee = fee + 1 WHERE fee = 99;
	`)
	assertReenactsFaithfully(t, ordersDB(), h)
}

func TestReenactMultiRelation(t *testing.T) {
	db := ordersDB()
	arch := storage.NewRelation(schema.New("archive",
		schema.Col("id", types.KindInt),
		schema.Col("country", types.KindString),
		schema.Col("price", types.KindInt),
		schema.Col("fee", types.KindInt),
	))
	db.AddRelation(arch)
	h, _ := sql.ParseStatements(`
		UPDATE orders SET fee = 0 WHERE price >= 50;
		INSERT INTO archive SELECT * FROM orders WHERE fee = 0;
		UPDATE archive SET fee = 1 WHERE price >= 55;
	`)
	assertReenactsFaithfully(t, db, h)
}

func TestReenactWithFilterRestrictsInput(t *testing.T) {
	h, _ := sql.ParseStatements(`UPDATE orders SET fee = 0 WHERE price >= 50`)
	filters := Filters{"orders": expr.Ge(expr.Column("price"), expr.IntConst(50))}
	q, err := QueryForRelation(h, "orders", ordersDB(), filters)
	if err != nil {
		t.Fatal(err)
	}
	out, err := algebra.Eval(q, ordersDB())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("filtered reenactment returned %d tuples, want 2", out.Len())
	}
}

// withoutInserts is the H_noIns of §10 for a history whose inserts
// all target the reenacted relation: h without its insert statements.
func withoutInserts(h history.History) history.History {
	var out history.History
	for _, st := range h {
		switch st.(type) {
		case *history.InsertValues, *history.InsertQuery:
			continue
		}
		out = append(out, st)
	}
	return out
}

// TestInsertBranchesUnionEquivalence is the §10 theorem in executable form:
// base-part ∪ insert-branches must equal the full reenactment.
func TestInsertBranchesUnionEquivalence(t *testing.T) {
	h, _ := sql.ParseStatements(`
		UPDATE orders SET fee = 2 WHERE price >= 40;
		INSERT INTO orders VALUES (15, 'DE', 80, 6), (16, 'FR', 10, 1);
		UPDATE orders SET fee = fee + 1 WHERE price >= 60;
		DELETE FROM orders WHERE fee >= 7;
		INSERT INTO orders VALUES (17, 'JP', 90, 0);
		UPDATE orders SET fee = fee + 10 WHERE price >= 85;
	`)
	assertSplitEqualsFull(t, h, ordersDB())
}

// TestInsertBranchesRenameSelectOutput: an INSERT…SELECT whose select
// list computes a column (id + 100 is named col1) starts a branch that
// the later statements address by the target's column names.
func TestInsertBranchesRenameSelectOutput(t *testing.T) {
	h, _ := sql.ParseStatements(`
		INSERT INTO orders SELECT id + 100, country, price, fee FROM orders WHERE price >= 50;
		UPDATE orders SET fee = fee + 1 WHERE id >= 100;
	`)
	assertSplitEqualsFull(t, h, ordersDB())
}

// assertSplitEqualsFull checks the §10 split of h's reenactment of
// orders over db: base part ∪ insert branches is the full reenactment.
func assertSplitEqualsFull(t *testing.T, h history.History, db *storage.Database) {
	t.Helper()
	full, err := QueryForRelation(h, "orders", db, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRel, err := algebra.Eval(full, db)
	if err != nil {
		t.Fatal(err)
	}

	noIns := withoutInserts(h)
	base, err := QueryForRelation(noIns, "orders", db, nil)
	if err != nil {
		t.Fatal(err)
	}
	branches, err := InsertBranches(h, "orders", db)
	if err != nil {
		t.Fatal(err)
	}
	if branches == nil {
		t.Fatal("expected insert branches")
	}
	gotRel, err := algebra.Eval(&algebra.Union{L: base, R: branches}, db)
	if err != nil {
		t.Fatal(err)
	}
	if !gotRel.EqualAsBag(wantRel) {
		t.Errorf("split ≠ full:\nsplit: %sfull: %s", gotRel, wantRel)
	}
}

func TestInsertBranchesNilWithoutInserts(t *testing.T) {
	h, _ := sql.ParseStatements(`UPDATE orders SET fee = 0 WHERE price >= 50`)
	br, err := InsertBranches(h, "orders", ordersDB())
	if err != nil {
		t.Fatal(err)
	}
	if br != nil {
		t.Errorf("expected nil branches, got %s", br)
	}
}

// TestReenactRandomHistories fuzz-checks Def. 3 over random histories
// of updates, deletes and inserts.
func TestReenactRandomHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cols := []string{"price", "fee"}
	for trial := 0; trial < 80; trial++ {
		var h history.History
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			col := cols[rng.Intn(len(cols))]
			c := int64(rng.Intn(100))
			cond := expr.Ge(expr.Column(col), expr.IntConst(c))
			if rng.Intn(2) == 0 {
				cond = expr.Lt(expr.Column(col), expr.IntConst(c))
			}
			switch rng.Intn(4) {
			case 0:
				h = append(h, &history.Delete{Rel: "orders", Where: cond})
			case 1:
				h = append(h, &history.InsertValues{Rel: "orders", Rows: []schema.Tuple{{
					types.Int(int64(100 + trial)), types.String("XX"),
					types.Int(int64(rng.Intn(100))), types.Int(int64(rng.Intn(10))),
				}}})
			default:
				h = append(h, &history.Update{Rel: "orders",
					Set: []history.SetClause{{
						Col: "fee",
						E:   expr.Add(expr.Column("fee"), expr.IntConst(int64(rng.Intn(5)))),
					}},
					Where: cond})
			}
		}
		assertReenactsFaithfully(t, ordersDB(), h)

		// And the split must agree too.
		db := ordersDB()
		full, err := QueryForRelation(h, "orders", db, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := algebra.Eval(full, db)
		if err != nil {
			t.Fatal(err)
		}
		noIns := withoutInserts(h)
		base, err := QueryForRelation(noIns, "orders", db, nil)
		if err != nil {
			t.Fatal(err)
		}
		q := base
		branches, err := InsertBranches(h, "orders", db)
		if err != nil {
			t.Fatal(err)
		}
		if branches != nil {
			q = &algebra.Union{L: base, R: branches}
		}
		got, err := algebra.Eval(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsBag(want) {
			t.Fatalf("trial %d: split ≠ full for history:\n%s", trial, h)
		}
	}
}
