package dataslice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

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

func mustPair(t *testing.T, h history.History, mods []history.Modification) *history.PaddedPair {
	t.Helper()
	pair, err := history.ApplyModifications(h, mods)
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func TestUpdatePairCondition(t *testing.T) {
	// Eq. 7: both sides filter on θ_u ∨ θ_u', folded into the looser
	// of the two thresholds (price >= 50 holds wherever price >= 60
	// does).
	h, _ := sql.ParseStatements(`UPDATE orders SET fee = 0 WHERE price >= 50`)
	pair := mustPair(t, h, []history.Modification{history.Replace{
		Pos:  0,
		Stmt: sql.MustParseStatement(`UPDATE orders SET fee = 0 WHERE price >= 60`),
	}})
	conds, err := Compute(pair, ordersDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := expr.Ge(expr.Column("price"), expr.IntConst(50))
	if !expr.Equal(conds.H["orders"], want) {
		t.Errorf("H filter = %s, want %s", conds.H["orders"], want)
	}
	if !expr.Equal(conds.M["orders"], want) {
		t.Errorf("M filter = %s, want %s", conds.M["orders"], want)
	}
}

func TestDeletePairConditions(t *testing.T) {
	// Simplified Eq. 8: H filters on θ_u', H[M] on θ_u — each widened
	// to θ ∨ (θ IS NULL), since the engine deletes NULL-θ tuples too
	// (the documented deviation in history.Delete) and the slice must
	// keep every tuple the delete can touch.
	h, _ := sql.ParseStatements(`DELETE FROM orders WHERE price < 30`)
	pair := mustPair(t, h, []history.Modification{history.Replace{
		Pos:  0,
		Stmt: sql.MustParseStatement(`DELETE FROM orders WHERE price < 40`),
	}})
	conds, err := Compute(pair, ordersDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide := func(w expr.Expr) expr.Expr { return expr.OrOf(w, &expr.IsNull{E: w}) }
	wantH := wide(expr.Lt(expr.Column("price"), expr.IntConst(40)))
	if !expr.Equal(conds.H["orders"], wantH) {
		t.Errorf("H filter = %s, want %s", conds.H["orders"], wantH)
	}
	wantM := wide(expr.Lt(expr.Column("price"), expr.IntConst(30)))
	if !expr.Equal(conds.M["orders"], wantM) {
		t.Errorf("M filter = %s, want %s", conds.M["orders"], wantM)
	}
}

// TestExample4PushDown reproduces the paper's Example 4: the slicing
// condition for a modification of u3 is pushed through u2 and u1 by
// substituting the fee with the conditional update expressions.
func TestExample4PushDown(t *testing.T) {
	h, _ := sql.ParseStatements(`
		UPDATE orders SET fee = 0 WHERE price >= 50;
		UPDATE orders SET fee = fee + 5 WHERE country = 'UK' AND price <= 100;
		UPDATE orders SET fee = fee - 2 WHERE price <= 30 AND fee >= 10;
	`)
	pair := mustPair(t, h, []history.Modification{history.Replace{
		Pos:  2,
		Stmt: sql.MustParseStatement(`UPDATE orders SET fee = fee - 2 WHERE price <= 40 AND fee >= 10`),
	}})
	db := ordersDB()
	conds, err := Compute(pair, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	filter := conds.H["orders"]
	if filter == nil {
		t.Fatal("no filter derived")
	}
	// Evaluating the pushed condition over Fig. 1 must keep exactly the
	// tuple with ID 11 (the paper's result).
	rel, _ := db.Relation("orders")
	var kept []int64
	for _, tup := range rel.Tuples {
		ok, err := expr.Satisfied(filter, rel.Schema, tup)
		if err != nil {
			t.Fatalf("evaluating %s: %v", filter, err)
		}
		if ok {
			kept = append(kept, tup[0].AsInt())
		}
	}
	if len(kept) != 1 || kept[0] != 11 {
		t.Errorf("filter keeps %v, want [11]; filter: %s", kept, filter)
	}
}

func TestInsertPairNoBaseCondition(t *testing.T) {
	h, _ := sql.ParseStatements(`
		INSERT INTO orders VALUES (15, 'DE', 80, 6);
		UPDATE orders SET fee = 1 WHERE price > 1000;
	`)
	pair := mustPair(t, h, []history.Modification{history.Replace{
		Pos:  0,
		Stmt: sql.MustParseStatement(`INSERT INTO orders VALUES (15, 'DE', 90, 6)`),
	}})
	conds, err := Compute(pair, ordersDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Insert pairs contribute no base filter: base tuples flow
	// identically through both histories.
	if _, ok := conds.H["orders"]; ok {
		t.Errorf("unexpected base filter %s for an insert-only modification", conds.H["orders"])
	}
}

func TestTaintedRelations(t *testing.T) {
	db := ordersDB()
	arch := storage.NewRelation(schema.New("archive",
		schema.Col("id", types.KindInt), schema.Col("country", types.KindString),
		schema.Col("price", types.KindInt), schema.Col("fee", types.KindInt)))
	db.AddRelation(arch)
	h, _ := sql.ParseStatements(`
		UPDATE orders SET fee = 0 WHERE price >= 50;
		INSERT INTO archive SELECT * FROM orders WHERE fee = 0;
	`)
	pair := mustPair(t, h, []history.Modification{history.Replace{
		Pos:  0,
		Stmt: sql.MustParseStatement(`UPDATE orders SET fee = 0 WHERE price >= 60`),
	}})
	tainted := TaintedRelations(pair)
	if !tainted["orders"] || !tainted["archive"] {
		t.Errorf("taint must flow through INSERT…SELECT: %v", tainted)
	}

	// The reverse order: the archive insert runs before the
	// modification, so archive stays clean.
	h2, _ := sql.ParseStatements(`
		INSERT INTO archive SELECT * FROM orders WHERE fee = 0;
		UPDATE orders SET fee = 0 WHERE price >= 50;
	`)
	pair2 := mustPair(t, h2, []history.Modification{history.Replace{
		Pos:  1,
		Stmt: sql.MustParseStatement(`UPDATE orders SET fee = 0 WHERE price >= 60`),
	}})
	tainted2 := TaintedRelations(pair2)
	if tainted2["archive"] {
		t.Errorf("pre-modification insert must not taint: %v", tainted2)
	}
}

// TestFilteredDeltaEquality is the executable Theorem 2: the delta over
// filtered reenactment inputs equals the unfiltered delta, across
// random histories and modifications.
func TestFilteredDeltaEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		db := randomOrdersDB(rng, 40)
		h := randomHistory(rng, 1+rng.Intn(5))
		modPos := rng.Intn(len(h))
		mod := randomModification(rng, h, modPos)
		pair, err := history.ApplyModifications(h, []history.Modification{mod})
		if err != nil {
			t.Fatal(err)
		}

		plain := computeDelta(t, pair, db, nil, nil)
		conds, err := Compute(pair, db, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		filtered := computeDelta(t, pair, db, conds.H, conds.M)
		if !plain.Equal(filtered) {
			t.Fatalf("trial %d: data slicing changed the delta\nhistory:\n%s\nmod: %s\nfilters: H=%s M=%s\nplain:\n%s\nfiltered:\n%s",
				trial, h, mod, conds.H["orders"], conds.M["orders"], plain, filtered)
		}
	}
}

func computeDelta(t *testing.T, pair *history.PaddedPair, db *storage.Database, fh, fm reenact.Filters) *delta.Result {
	t.Helper()
	qo, err := reenact.QueryForRelation(pair.Orig, "orders", db, fh)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := reenact.QueryForRelation(pair.Mod, "orders", db, fm)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := algebra.Eval(qo, db)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := algebra.Eval(qm, db)
	if err != nil {
		t.Fatal(err)
	}
	return delta.Compute(ro, rm)
}

func randomOrdersDB(rng *rand.Rand, n int) *storage.Database {
	s := schema.New("orders",
		schema.Col("id", types.KindInt),
		schema.Col("country", types.KindString),
		schema.Col("price", types.KindInt),
		schema.Col("fee", types.KindInt),
	)
	countries := []string{"UK", "US", "DE"}
	r := storage.NewRelation(s)
	for i := 0; i < n; i++ {
		r.Add(schema.Tuple{
			types.Int(int64(i)),
			types.String(countries[rng.Intn(len(countries))]),
			types.Int(int64(rng.Intn(100))),
			types.Int(int64(rng.Intn(20))),
		})
	}
	db := storage.NewDatabase()
	db.AddRelation(r)
	return db
}

func randomCondition(rng *rand.Rand) expr.Expr {
	col := []string{"price", "fee"}[rng.Intn(2)]
	c := int64(rng.Intn(100))
	if rng.Intn(2) == 0 {
		return expr.Ge(expr.Column(col), expr.IntConst(c))
	}
	return expr.Lt(expr.Column(col), expr.IntConst(c))
}

func randomHistory(rng *rand.Rand, n int) history.History {
	var h history.History
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			h = append(h, &history.Delete{Rel: "orders", Where: randomCondition(rng)})
		case 1:
			h = append(h, &history.InsertValues{Rel: "orders", Rows: []schema.Tuple{{
				types.Int(int64(1000 + i)), types.String("XX"),
				types.Int(int64(rng.Intn(100))), types.Int(int64(rng.Intn(20))),
			}}})
		default:
			h = append(h, &history.Update{Rel: "orders",
				Set: []history.SetClause{{
					Col: "fee",
					E:   expr.Add(expr.Column("fee"), expr.IntConst(int64(rng.Intn(4)))),
				}},
				Where: randomCondition(rng)})
		}
	}
	return h
}

func randomModification(rng *rand.Rand, h history.History, pos int) history.Modification {
	switch h[pos].(type) {
	case *history.Update:
		return history.Replace{Pos: pos, Stmt: &history.Update{Rel: "orders",
			Set: []history.SetClause{{
				Col: "fee",
				E:   expr.Add(expr.Column("fee"), expr.IntConst(int64(rng.Intn(6)))),
			}},
			Where: randomCondition(rng)}}
	case *history.Delete:
		return history.Replace{Pos: pos, Stmt: &history.Delete{Rel: "orders", Where: randomCondition(rng)}}
	default:
		return history.Replace{Pos: pos, Stmt: &history.InsertValues{Rel: "orders", Rows: []schema.Tuple{{
			types.Int(int64(2000)), types.String("YY"),
			types.Int(int64(rng.Intn(100))), types.Int(int64(rng.Intn(20))),
		}}}}
	}
}

// TestLooserMatchesDisjunction is the fold's randomized differential:
// θ and θ' share their conjuncts but one, a comparison of column a with
// a constant, and where looser folds θ ∨ θ' the folded condition must
// keep the same rows in the same order, or fail with the same error,
// under the interpreter's σ and the vectorized one — over cells of
// every kind (NULL, NaN, ±Inf, ±0, ints at and past ±2^53, strings,
// bools) and shared conjuncts that are NULL or fail on some rows. Pairs
// of an int and a float constant, NaN constants, and bounds from
// opposite sides must stay unfolded, two bounds by the same operator
// must fold.
func TestLooserMatchesDisjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	ints := []types.Value{types.Int(0), types.Int(1), types.Int(3), types.Int(-3), types.Int(1 << 53), types.Int(1<<53 + 1),
		types.Int(-(1<<53 + 1)), types.Int(math.MaxInt64), types.Int(math.MinInt64)}
	floats := []types.Value{types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(2.5), types.Float(3),
		types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(1 << 53), types.Float(-(1 << 53)), types.Float(math.NaN())}
	others := []types.Value{types.String("x"), types.Bool(true)}
	ops := []expr.CmpOp{expr.CmpLt, expr.CmpLe, expr.CmpGt, expr.CmpGe}
	shared := []string{"b >= 2", "s = 'x'", "b < 1 OR s > 1"}
	draw := func(pool []types.Value) types.Value { return pool[rng.Intn(len(pool))] }
	folded := 0
	for trial := 0; trial < 600; trial++ {
		// Column a: ints, floats, both (the boxed lane), or a cell that
		// fails every numeric comparison.
		kind, pool := types.KindInt, ints
		switch mode := rng.Intn(8); {
		case mode < 3:
		case mode < 6:
			kind, pool = types.KindFloat, floats
		default:
			pool = append(append([]types.Value(nil), ints...), floats...)
		}
		poison := rng.Intn(6) == 0
		r := storage.NewRelation(schema.New("t",
			schema.Col("a", kind), schema.Col("b", types.KindInt), schema.Col("s", types.KindString)))
		for i, n := 0, rng.Intn(40); i < n; i++ {
			a := draw(pool)
			switch {
			case rng.Intn(7) == 0:
				a = types.Null()
			case poison && rng.Intn(10) == 0:
				a = draw(others)
			}
			b := types.Int(int64(rng.Intn(4)))
			if rng.Intn(5) == 0 {
				b = types.Null()
			}
			r.Add(schema.NewTuple(a, b, draw([]types.Value{types.String("x"), types.String("y"), types.Null()})))
		}
		db := storage.NewDatabase()
		db.AddRelation(r)

		kx, ky := draw(ints), draw(ints)
		switch rng.Intn(5) {
		case 0, 1:
			kx, ky = draw(floats), draw(floats)
		case 2:
			kx, ky = draw(ints), draw(floats)
			if rng.Intn(2) == 0 {
				kx, ky = ky, kx
			}
		}
		cmpOf := func(k types.Value) expr.Expr {
			c := &expr.Cmp{Op: ops[rng.Intn(len(ops))], L: expr.Column("a"), R: expr.Constant(k)}
			if rng.Intn(2) == 0 {
				c.L, c.R, c.Op = c.R, c.L, c.Op.Flip()
			}
			return c
		}
		x, y := cmpOf(kx), cmpOf(ky)
		var pre, post []expr.Expr
		for _, src := range shared {
			if rng.Intn(3) > 0 {
				continue
			}
			cond, err := sql.ParseCondition(src)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				pre = append(pre, cond)
			} else {
				post = append(post, cond)
			}
		}
		theta := expr.AndOf(append(append(append([]expr.Expr(nil), pre...), x), post...)...)
		theta2 := expr.AndOf(append(append(append([]expr.Expr(nil), pre...), y), post...)...)
		label := fmt.Sprintf("trial %d: (%s) OR (%s)", trial, theta, theta2)

		_, xop, _, _ := colBound(x)
		_, yop, _, _ := colBound(y)
		lower := func(op expr.CmpOp) bool { return op == expr.CmpGt || op == expr.CmpGe }
		foldable := kx.Kind() == ky.Kind() && !math.IsNaN(kx.AsFloat()) && !math.IsNaN(ky.AsFloat()) && lower(xop) == lower(yop)
		got := looser(theta, theta2)
		switch {
		case !foldable && got != nil:
			t.Fatalf("%s: folded into %s", label, got)
		case foldable && got == nil && xop == yop && !expr.Equal(x, y):
			t.Fatalf("%s: not folded", label)
		case got == nil:
			continue
		}
		folded++
		for _, cond := range []expr.Expr{got, expr.OrOf(theta, theta2)} {
			if err := expr.Validate(cond, r.Schema); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		wantRows, wantErr := sigma(t, db, expr.OrOf(theta, theta2))
		gotRows, gotErr := sigma(t, db, got)
		if gotErr != wantErr || gotRows != wantRows {
			t.Fatalf("%s: folded into %s\nkeeps %s (%v)\nthe disjunction %s (%v)", label, got, gotRows, gotErr, wantRows, wantErr)
		}
	}
	if folded < 100 {
		t.Fatalf("only %d of the draws folded", folded)
	}
}

// sigma runs σ_cond(t) over db under the interpreter and the vectorized
// executor, requires the two to keep the same rows or to fail with the
// same text, and returns the rows, rendered in order, or the cause of
// the failure (cause).
func sigma(t *testing.T, db *storage.Database, cond expr.Expr) (string, string) {
	t.Helper()
	q := &algebra.Select{Cond: cond, In: &algebra.Scan{Rel: "t"}}
	want, wantErr := algebra.Eval(q, db)
	prog, err := exec.CompileVec(q, db, exec.VecOptions{BatchSize: 7})
	if err != nil {
		t.Fatalf("compile %s: %v", cond, err)
	}
	got, gotErr := prog.RunCtx(context.Background(), db)
	switch {
	case fmt.Sprint(gotErr) != fmt.Sprint(wantErr):
		t.Fatalf("σ[%s]: the interpreter fails with %v, the vectorized σ with %v", cond, wantErr, gotErr)
	case gotErr != nil:
		return "", cause(gotErr)
	case fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples):
		t.Fatalf("σ[%s]: the interpreter keeps %v, the vectorized σ %v", cond, want.Tuples, got.Tuples)
	}
	return fmt.Sprint(got.Tuples), ""
}

// failedCmp matches a failed comparison's text.
var failedCmp = regexp.MustCompile(`cannot compare (\w+) with (\w+)`)

// cause is a σ's error text without the σ, which names its condition,
// and with a failed comparison's operand kinds in sorted order: a fold
// rewrites the condition, and its comparison may spell the column and
// the constant the other way round.
func cause(err error) string {
	return failedCmp.ReplaceAllStringFunc(errors.Unwrap(err).Error(), func(m string) string {
		kinds := failedCmp.FindStringSubmatch(m)[1:]
		slices.Sort(kinds)
		return "cannot compare " + kinds[0] + " with " + kinds[1]
	})
}
