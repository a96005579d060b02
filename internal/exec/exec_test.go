package exec_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// identityProjection copies every column of s unchanged.
func identityProjection(s *schema.Schema) []algebra.NamedExpr {
	out := make([]algebra.NamedExpr, s.Arity())
	for i, c := range s.Columns {
		out[i] = algebra.NamedExpr{Name: c.Name, E: expr.Column(c.Name)}
	}
	return out
}

// testDB builds two relations r(k,v,g) and s2(k2,w) with a few NULLs
// and duplicates, the shapes the multiset and join paths must handle.
func testDB() *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("r",
		schema.Col("k", types.KindInt),
		schema.Col("v", types.KindInt),
		schema.Col("g", types.KindString),
	))
	r.Add(
		schema.NewTuple(types.Int(1), types.Int(10), types.String("a")),
		schema.NewTuple(types.Int(2), types.Int(20), types.String("b")),
		schema.NewTuple(types.Int(2), types.Int(20), types.String("b")), // duplicate
		schema.NewTuple(types.Int(3), types.Null(), types.String("a")),
		schema.NewTuple(types.Null(), types.Int(40), types.String("c")),
		schema.NewTuple(types.Int(5), types.Int(50), types.String("c")),
	)
	db.AddRelation(r)
	s2 := storage.NewRelation(schema.New("s2",
		schema.Col("k2", types.KindInt),
		schema.Col("w", types.KindFloat),
	))
	s2.Add(
		schema.NewTuple(types.Int(1), types.Float(1.5)),
		schema.NewTuple(types.Int(2), types.Float(2.5)),
		schema.NewTuple(types.Int(2), types.Float(2.75)),
		schema.NewTuple(types.Null(), types.Float(9.9)),
	)
	db.AddRelation(s2)
	return db
}

func mustCond(t testing.TB, src string) expr.Expr {
	t.Helper()
	c, err := sql.ParseCondition(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testQueries is the battery of compilable plan shapes: fused σ/Π
// chains, unions with singletons, equi-joins, and nested combinations.
func testQueries(t testing.TB, db *storage.Database) map[string]algebra.Query {
	t.Helper()
	rSch, _ := algebra.OutputSchema(&algebra.Scan{Rel: "r"}, db)
	scanR := func() algebra.Query { return &algebra.Scan{Rel: "r"} }
	scanS := func() algebra.Query { return &algebra.Scan{Rel: "s2"} }

	// A reenactment-shaped chain: Π(σ(Π(Π(scan)))) — one generalized
	// projection per UPDATE, a negated selection per DELETE.
	chain := algebra.Query(scanR())
	for i := 0; i < 4; i++ {
		cond := mustCond(t, fmt.Sprintf("v >= %d", 10*i))
		exprs := identityProjection(rSch)
		exprs[1].E = expr.IfThenElse(cond, expr.Add(expr.Column("v"), expr.IntConst(int64(i+1))), expr.Column("v"))
		chain = &algebra.Project{Exprs: exprs, In: chain}
		if i == 2 {
			chain = &algebra.Select{Cond: expr.Negation(mustCond(t, "k = 2 AND g = 'b'")), In: chain}
		}
	}

	sing := &algebra.Singleton{Sch: rSch, Tuples: []schema.Tuple{
		schema.NewTuple(types.Int(100), types.Int(1), types.String("z")),
		schema.NewTuple(types.Int(2), types.Int(20), types.String("b")),
	}}

	return map[string]algebra.Query{
		"scan":          scanR(),
		"select":        &algebra.Select{Cond: mustCond(t, "v > 15 OR g = 'a'"), In: scanR()},
		"select-null":   &algebra.Select{Cond: mustCond(t, "k IS NULL OR NOT (v < 30)"), In: scanR()},
		"project":       &algebra.Project{Exprs: []algebra.NamedExpr{{Name: "k", E: expr.Column("k")}, {Name: "x", E: expr.Mul(expr.Column("v"), expr.IntConst(2))}}, In: scanR()},
		"fused-chain":   chain,
		"union":         &algebra.Union{L: scanR(), R: sing},
		"equi-join":     &algebra.Join{L: scanR(), R: scanS(), Cond: mustCond(t, "k = k2")},
		"join-of-chain": &algebra.Join{L: chain, R: scanS(), Cond: mustCond(t, "k = k2")},
		"nested": &algebra.Union{
			L: &algebra.Select{Cond: mustCond(t, "v >= 10"), In: &algebra.Union{L: scanR(), R: sing}},
			R: &algebra.Select{Cond: mustCond(t, "g = 'b'"), In: scanR()},
		},
	}
}

// tinyBatches compiles programs whose every operator boundary is a
// batch boundary on testDB's handful of rows: two-row batches, scans
// partitioned across three workers.
var tinyBatches = exec.VecOptions{BatchSize: 2, Workers: 3, MinParallelRows: 1}

// TestCompiledMatchesInterpreter requires programs compiled with
// tinyBatches to produce the interpreter's exact output — same tuples,
// same order — on every plan shape: joins and unions see their inputs
// split across batches and partitions.
func TestCompiledMatchesInterpreter(t *testing.T) {
	db := testDB()
	for name, q := range testQueries(t, db) {
		t.Run(name, func(t *testing.T) {
			want, err := algebra.Eval(q, db)
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			prog, err := exec.CompileVec(q, db, tinyBatches)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got, err := prog.RunCtx(context.Background(), db)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			requireSameRelation(t, name, want, got)
		})
	}
}

// TestReenactmentChainEquivalence runs a full reenactment query built
// from a parsed history — the production shape — through a program
// compiled with tinyBatches, into both sinks.
func TestReenactmentChainEquivalence(t *testing.T) {
	db := testDB()
	var h history.History
	for _, src := range []string{
		`UPDATE r SET v = v + 1 WHERE k >= 2`,
		`INSERT INTO r VALUES (7, 70, 'd'), (8, 80, 'd')`,
		`DELETE FROM r WHERE g = 'c'`,
		`UPDATE r SET v = 0, k = k + 1 WHERE v > 50`,
		`INSERT INTO r SELECT k2, 0, 'q' FROM s2 WHERE w > 2`,
		`UPDATE r SET v = v * 2 WHERE g = 'd' OR v IS NULL`,
	} {
		h = append(h, sql.MustParseStatement(src))
	}
	qs, err := reenact.Queries(h, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := qs["r"]
	want, err := algebra.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.CompileVec(q, db, tinyBatches)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.RunCtx(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, "rows", want, got)
	view, err := prog.RunColumnarCtx(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, "columnar", want, view.Relation())
}

// TestProgramReuseAndConcurrency compiles once and runs the program
// many times concurrently: results must be identical (Run keeps all
// scratch state per run).
func TestProgramReuseAndConcurrency(t *testing.T) {
	db := testDB()
	for name, q := range testQueries(t, db) {
		prog, err := exec.CompileVec(q, db, exec.VecOptions{})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		want, err := prog.RunCtx(context.Background(), db)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := prog.RunCtx(context.Background(), db)
				if err != nil {
					errs[i] = err
					return
				}
				if !got.EqualAsBag(want) {
					errs[i] = fmt.Errorf("concurrent run diverged")
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestCompileRejectsSymbolic ensures the fallback path triggers for
// expressions outside the executable subset.
func TestCompileRejectsSymbolic(t *testing.T) {
	db := testDB()
	q := &algebra.Select{Cond: expr.Eq(expr.Variable("x0"), expr.IntConst(1)), In: &algebra.Scan{Rel: "r"}}
	if _, err := exec.CompileVec(q, db, exec.VecOptions{}); err == nil {
		t.Fatal("expected compile error for symbolic variable")
	}
	q2 := &algebra.Select{Cond: expr.Eq(expr.Column("nope"), expr.IntConst(1)), In: &algebra.Scan{Rel: "r"}}
	if _, err := exec.CompileVec(q2, db, exec.VecOptions{}); err == nil {
		t.Fatal("expected compile error for unknown column")
	}
}

// TestJoinLargeIntKeys pins the = operator's numeric widening: 2^53
// and 2^53+1 are distinct int64s but identical float64s, and the
// interpreter's equality (Compare, via AsFloat) joins them. The hash
// join's key equality must widen the same way.
func TestJoinLargeIntKeys(t *testing.T) {
	db := storage.NewDatabase()
	a := storage.NewRelation(schema.New("a", schema.Col("x", types.KindInt)))
	a.Add(schema.NewTuple(types.Int(1 << 53)))
	db.AddRelation(a)
	b := storage.NewRelation(schema.New("b", schema.Col("y", types.KindInt)))
	b.Add(schema.NewTuple(types.Int(1<<53 + 1)))
	db.AddRelation(b)
	q := &algebra.Join{L: &algebra.Scan{Rel: "a"}, R: &algebra.Scan{Rel: "b"},
		Cond: expr.Eq(expr.Column("x"), expr.Column("y"))}
	want, err := algebra.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := evalVec(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("vectorized joined %d rows, interpreter %d", len(got.Tuples), len(want.Tuples))
	}
}

// pairDB builds a(x, y) with na rows and b(z, w) with nb rows, x = y = i
// and z = w = j, so a join over them has na × nb pairs.
func pairDB(na, nb int) *storage.Database {
	db := storage.NewDatabase()
	a := storage.NewRelation(schema.New("a", schema.Col("x", types.KindInt), schema.Col("y", types.KindInt)))
	for i := 0; i < na; i++ {
		a.Add(schema.NewTuple(types.Int(int64(i)), types.Int(int64(i))))
	}
	db.AddRelation(a)
	b := storage.NewRelation(schema.New("b", schema.Col("z", types.KindInt), schema.Col("w", types.KindInt)))
	for j := 0; j < nb; j++ {
		b.Add(schema.NewTuple(types.Int(int64(j)), types.Int(int64(j))))
	}
	db.AddRelation(b)
	return db
}

// TestJoinResidualErrorParity pins the joins outside the compilable
// subset: an equi-join with a residual conjunct, whose residual the
// interpreter also evaluates on NULL-key pairs (a NULL equality does
// not short-circuit its AND), and theta joins, one of which errors only
// on its last 30 of 1 500 pairs. CompileVec refuses each, so the engine
// answers them with the interpreter (the engine-level half of this
// pin is core's TestNonEquiJoinFallsBackCounted).
func TestJoinResidualErrorParity(t *testing.T) {
	pairs := pairDB(50, 30)
	joinAB := func(cond expr.Expr) algebra.Query {
		return &algebra.Join{L: &algebra.Scan{Rel: "a"}, R: &algebra.Scan{Rel: "b"}, Cond: cond}
	}
	cases := []struct {
		name    string
		db      *storage.Database
		q       algebra.Query
		wantErr bool
	}{
		{"equi-residual", testDB(), // r has a NULL k row; v is int
			&algebra.Join{L: &algebra.Scan{Rel: "r"}, R: &algebra.Scan{Rel: "s2"},
				Cond: expr.AndOf(
					expr.Eq(expr.Column("k"), expr.Column("k2")),
					expr.Gt(expr.Column("v"), expr.StringConst("x")), // int > string: type error
				)}, true},
		{"theta", pairs, joinAB(mustCond(t, "x < z OR y + w = 60")), false},
		{"theta-late-error", pairs, joinAB(expr.OrOf(
			expr.Lt(expr.Column("x"), expr.IntConst(49)),
			expr.Gt(expr.Column("y"), expr.StringConst("q")), // reached only on x = 49
		)), true},
	}
	for _, c := range cases {
		if _, err := algebra.Eval(c.q, c.db); (err != nil) != c.wantErr {
			t.Fatalf("%s: interpreter error %v, want an error: %t", c.name, err, c.wantErr)
		}
		if _, err := exec.CompileVec(c.q, c.db, exec.VecOptions{}); err == nil {
			t.Fatalf("%s: CompileVec compiled a join that is not a pure equi-join", c.name)
		}
	}
}
