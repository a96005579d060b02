package algebra

import (
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// testDB builds a two-relation database:
//
//	r(a int, b int):   (1,10) (2,20) (3,30)
//	s(c int, d string): (2,'x') (3,'y') (4,'z')
func testDB() *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("r", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt)))
	r.Add(
		schema.Tuple{types.Int(1), types.Int(10)},
		schema.Tuple{types.Int(2), types.Int(20)},
		schema.Tuple{types.Int(3), types.Int(30)},
	)
	db.AddRelation(r)
	s := storage.NewRelation(schema.New("s", schema.Col("c", types.KindInt), schema.Col("d", types.KindString)))
	s.Add(
		schema.Tuple{types.Int(2), types.String("x")},
		schema.Tuple{types.Int(3), types.String("y")},
		schema.Tuple{types.Int(4), types.String("z")},
	)
	db.AddRelation(s)
	return db
}

func evalQ(t *testing.T, q Query) *storage.Relation {
	t.Helper()
	out, err := Eval(q, testDB())
	if err != nil {
		t.Fatalf("Eval(%s): %v", q, err)
	}
	return out
}

func TestScan(t *testing.T) {
	out := evalQ(t, &Scan{Rel: "r"})
	if out.Len() != 3 {
		t.Errorf("scan returned %d tuples", out.Len())
	}
	if _, err := Eval(&Scan{Rel: "missing"}, testDB()); err == nil {
		t.Error("scan of missing relation must error")
	}
}

func TestSelect(t *testing.T) {
	q := &Select{Cond: expr.Ge(expr.Column("a"), expr.IntConst(2)), In: &Scan{Rel: "r"}}
	out := evalQ(t, q)
	if out.Len() != 2 {
		t.Errorf("σ returned %d tuples: %s", out.Len(), out)
	}
}

func TestProjectConditional(t *testing.T) {
	// The reenactment shape: b ← if a >= 2 then 0 else b.
	q := &Project{
		Exprs: []NamedExpr{
			{Name: "a", E: expr.Column("a")},
			{Name: "b", E: expr.IfThenElse(expr.Ge(expr.Column("a"), expr.IntConst(2)), expr.IntConst(0), expr.Column("b"))},
		},
		In: &Scan{Rel: "r"},
	}
	out := evalQ(t, q)
	want := map[int64]int64{1: 10, 2: 0, 3: 0}
	for _, tup := range out.Tuples {
		if got := tup[1].AsInt(); got != want[tup[0].AsInt()] {
			t.Errorf("a=%d: b=%d, want %d", tup[0].AsInt(), got, want[tup[0].AsInt()])
		}
	}
}

func TestUnion(t *testing.T) {
	r := &Scan{Rel: "r"}
	sel := &Select{Cond: expr.Eq(expr.Column("a"), expr.IntConst(2)), In: r}
	u := evalQ(t, &Union{L: r, R: sel})
	if u.Len() != 4 {
		t.Errorf("union has %d tuples (bag semantics)", u.Len())
	}
}

func TestJoin(t *testing.T) {
	q := &Join{
		L:    &Scan{Rel: "r"},
		R:    &Scan{Rel: "s"},
		Cond: expr.Eq(expr.Column("a"), expr.Column("c")),
	}
	out := evalQ(t, q)
	if out.Len() != 2 {
		t.Fatalf("join returned %d tuples: %s", out.Len(), out)
	}
	if out.Schema.Arity() != 4 {
		t.Errorf("join schema arity = %d", out.Schema.Arity())
	}
}

func TestSingleton(t *testing.T) {
	s := schema.New("r", schema.Col("a", types.KindInt), schema.Col("b", types.KindInt))
	q := &Singleton{Sch: s, Tuples: []schema.Tuple{{types.Int(9), types.Int(90)}}}
	out := evalQ(t, q)
	if out.Len() != 1 || out.Tuples[0][0].AsInt() != 9 {
		t.Errorf("singleton = %s", out)
	}
}

func TestOutputSchema(t *testing.T) {
	db := testDB()
	q := &Project{
		Exprs: []NamedExpr{
			{Name: "total", E: expr.Add(expr.Column("a"), expr.Column("b"))},
			{Name: "frac", E: expr.Div(expr.Column("a"), expr.IntConst(2))},
			{Name: "flag", E: expr.Ge(expr.Column("a"), expr.IntConst(1))},
		},
		In: &Scan{Rel: "r"},
	}
	s, err := OutputSchema(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if s.Columns[0].Type != types.KindInt {
		t.Errorf("int+int type = %v", s.Columns[0].Type)
	}
	if s.Columns[1].Type != types.KindFloat {
		t.Errorf("division type = %v", s.Columns[1].Type)
	}
	if s.Columns[2].Type != types.KindBool {
		t.Errorf("comparison type = %v", s.Columns[2].Type)
	}
}

func TestSubstituteScans(t *testing.T) {
	inner := &Select{Cond: expr.Gt(expr.Column("a"), expr.IntConst(1)), In: &Scan{Rel: "r"}}
	q := &Union{L: &Scan{Rel: "r"}, R: &Scan{Rel: "s"}}
	got := SubstituteScans(q, map[string]Query{"r": inner})
	u := got.(*Union)
	if _, ok := u.L.(*Select); !ok {
		t.Errorf("left scan not substituted: %s", got)
	}
	if sc, ok := u.R.(*Scan); !ok || sc.Rel != "s" {
		t.Errorf("unrelated scan touched: %s", got)
	}
}

func TestBaseRelations(t *testing.T) {
	q := &Union{
		L: &Join{L: &Scan{Rel: "r"}, R: &Scan{Rel: "s"}, Cond: expr.True},
		R: &Select{Cond: expr.True, In: &Scan{Rel: "R"}},
	}
	rels := BaseRelations(q)
	if !rels["r"] || !rels["s"] || len(rels) != 2 {
		t.Errorf("BaseRelations = %v", rels)
	}
}

func TestEvalDoesNotMutateBase(t *testing.T) {
	db := testDB()
	q := &Project{
		Exprs: []NamedExpr{
			{Name: "a", E: expr.IntConst(0)},
			{Name: "b", E: expr.IntConst(0)},
		},
		In: &Scan{Rel: "r"},
	}
	if _, err := Eval(q, db); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("r")
	if r.Tuples[0][0].AsInt() != 1 {
		t.Error("projection mutated base relation")
	}
}
