package history

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// applyNaiveStatement runs st against db through the reference
// per-tuple loops, bypassing the kernel plans — the oracle of the
// application properties.
func applyNaiveStatement(t *testing.T, st Statement, db *storage.Database) error {
	t.Helper()
	switch x := st.(type) {
	case *Update:
		rel, err := db.Relation(x.Rel)
		if err != nil {
			return err
		}
		vec, err := x.setVector(rel.Schema)
		if err != nil {
			return err
		}
		if err := expr.Validate(x.Where, rel.Schema); err != nil {
			return err
		}
		for _, sc := range x.Set {
			if err := expr.Validate(sc.E, rel.Schema); err != nil {
				return err
			}
		}
		return x.applyNaive(rel, vec)
	case *Delete:
		rel, err := db.Relation(x.Rel)
		if err != nil {
			return err
		}
		if err := expr.Validate(x.Where, rel.Schema); err != nil {
			return err
		}
		return x.applyNaive(rel)
	case *InsertValues, *InsertQuery:
		return x.Apply(db) // inserts have one path
	}
	t.Fatalf("unknown statement %T", st)
	return nil
}

// applyCols builds the two-relation test schema shared by the random
// application scenarios.
func applyCols() []schema.Column {
	return []schema.Column{
		schema.Col("k", types.KindInt),
		schema.Col("v", types.KindInt),
		schema.Col("g", types.KindString),
		schema.Col("f", types.KindFloat),
	}
}

// floatCell is column f's cell at row i: derived from the position, so
// the rng stream the other columns draw from is the same with and
// without f. Every 10th row holds a NaN, which Compare ties with every
// number and which therefore keeps f from being indexed.
func floatCell(i int) types.Value {
	switch {
	case i%10 == 0:
		return types.Float(math.NaN())
	case i%17 == 0:
		return types.Null()
	}
	return types.Float(float64(i % 40))
}

// randomApplyDB builds relations r (populated, with NULLs and
// duplicates) and w (small) over the shared schema.
func randomApplyDB(rng *rand.Rand, rows int) *storage.Database {
	db := storage.NewDatabase()
	groups := []string{"a", "b", "c"}
	r := storage.NewRelation(schema.New("r", applyCols()...))
	for i := 0; i < rows; i++ {
		k := types.Value(types.Int(int64(rng.Intn(40))))
		v := types.Value(types.Int(int64(rng.Intn(40))))
		if rng.Intn(12) == 0 {
			v = types.Null()
		}
		if rng.Intn(15) == 0 {
			k = types.Null()
		}
		r.Add(schema.NewTuple(k, v, types.String(groups[rng.Intn(len(groups))]), floatCell(i)))
	}
	db.AddRelation(r)
	w := storage.NewRelation(schema.New("w", applyCols()...))
	for i := 0; i < rng.Intn(5); i++ {
		w.Add(schema.NewTuple(types.Int(int64(i)), types.Int(int64(rng.Intn(10))), types.String("w"), floatCell(i)))
	}
	db.AddRelation(w)
	return db
}

func randomApplyCond(rng *rand.Rand) expr.Expr {
	col := []string{"k", "v"}[rng.Intn(2)]
	cmp := []func(l, r expr.Expr) *expr.Cmp{expr.Ge, expr.Lt, expr.Eq}[rng.Intn(3)]
	base := expr.Expr(cmp(expr.Column(col), expr.IntConst(int64(rng.Intn(40)))))
	switch rng.Intn(5) {
	case 0:
		return expr.AndOf(base, expr.Eq(expr.Column("g"), expr.StringConst([]string{"a", "b", "c"}[rng.Intn(3)])))
	case 1:
		return expr.OrOf(base, expr.Lt(expr.Column("v"), expr.IntConst(int64(rng.Intn(15)))))
	case 2:
		return expr.OrOf(base, &expr.IsNull{E: expr.Column("v")})
	case 3:
		return randomIndexedCond(rng)
	}
	return base
}

func randomApplyStatement(rng *rand.Rand, i int) Statement {
	rel := "r"
	if rng.Intn(4) == 0 {
		rel = "w"
	}
	switch rng.Intn(8) {
	case 0:
		return &Delete{Rel: rel, Where: randomApplyCond(rng)}
	case 1:
		return &InsertValues{Rel: rel, Rows: []schema.Tuple{
			schema.NewTuple(types.Int(int64(100+i)), types.Int(int64(rng.Intn(40))), types.String("a"), floatCell(i)),
			schema.NewTuple(types.Int(int64(200+i)), types.Null(), types.String("b"), types.Float(math.NaN())),
		}}
	case 2:
		src := "w"
		if rel == "w" {
			src = "r"
		}
		return &InsertQuery{Rel: rel, Query: &algebra.Select{
			Cond: randomApplyCond(rng),
			In:   &algebra.Scan{Rel: src},
		}}
	default:
		set := []SetClause{{Col: "v", E: expr.Add(expr.Column("v"), expr.IntConst(int64(1+rng.Intn(5))))}}
		if rng.Intn(3) == 0 {
			set = []SetClause{
				{Col: "v", E: expr.IntConst(int64(rng.Intn(25)))},
				{Col: "k", E: expr.Add(expr.Column("k"), expr.IntConst(1))},
			}
		}
		return &Update{Rel: rel, Set: set, Where: randomApplyCond(rng)}
	}
}

// sameTuple reports whether a and b hold identical cells: the same
// kind and an Equal value, or NaN on both sides (NaN is not Equal to
// itself).
func sameTuple(a, b schema.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		x, y := a[c], b[c]
		nan := x.Kind() == types.KindFloat && math.IsNaN(x.AsFloat()) && math.IsNaN(y.AsFloat())
		if x.Kind() != y.Kind() || !(x.Equal(y) || nan) {
			return false
		}
	}
	return true
}

// requireDatabasesEqual compares two databases relation by relation,
// tuple by tuple — order included, since kernel application must
// reproduce the naive loops' output exactly, not just as a bag — and
// cell by cell (sameTuple).
func requireDatabasesEqual(t *testing.T, label string, want, got *storage.Database) {
	t.Helper()
	for _, name := range want.RelationNames() {
		wr, err := want.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.Relation(name)
		if err != nil {
			t.Fatalf("%s: relation %s missing: %v", label, name, err)
		}
		if len(wr.Tuples) != len(gr.Tuples) {
			t.Fatalf("%s: relation %s has %d tuples, want %d\nnaive:\n%s\ncompiled:\n%s",
				label, name, len(gr.Tuples), len(wr.Tuples), wr, gr)
		}
		for i := range wr.Tuples {
			if !sameTuple(wr.Tuples[i], gr.Tuples[i]) {
				t.Fatalf("%s: relation %s tuple %d = %s, want %s", label, name, i, gr.Tuples[i], wr.Tuples[i])
			}
		}
	}
}

// TestCompiledApplyEquivalence is the plain-application property: for
// randomized histories of every statement class, applying each
// statement through Apply (the scan plan's batch kernels, no index set)
// and through the naive loops yields identical database states after
// every statement, and identical error behavior.
func TestCompiledApplyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		// Row counts straddle the executor's batch boundary so the
		// routed path exercises 0-, 1-, and multi-batch relations.
		rows := []int{0, 1, 37, 80, 1023, 1025}[rng.Intn(6)]
		base := randomApplyDB(rng, rows)
		naiveDB := base.Clone()
		fastDB := base.Clone()
		for i := 0; i < 6; i++ {
			st := randomApplyStatement(rng, i)
			errN := applyNaiveStatement(t, st, naiveDB)
			errF := st.Apply(fastDB)
			if (errN == nil) != (errF == nil) {
				t.Fatalf("trial %d: error divergence on %s: naive=%v compiled=%v", trial, st, errN, errF)
			}
			if errN != nil {
				break
			}
			requireDatabasesEqual(t, fmt.Sprintf("trial %d after %s", trial, st), naiveDB, fastDB)
		}
	}
}

// TestCompiledApplyAllVersionPositions pins statement application
// through the versioned store: every version of a random history
// reconstructed by time travel must equal the state reached by naive
// statement application, at every position 0..n.
func TestCompiledApplyAllVersionPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		base := randomApplyDB(rng, 60)
		vdb := storage.NewVersioned(base)
		// Naive ground-truth states, one per version.
		states := []*storage.Database{base.Clone()}
		cur := base.Clone()
		n := 1 + rng.Intn(7)
		for i := 0; i < n; i++ {
			st := randomApplyStatement(rng, i)
			next := cur.Clone()
			if err := applyNaiveStatement(t, st, next); err != nil {
				continue // skip statements that error; they never enter a log
			}
			if err := vdb.Apply(st); err != nil {
				t.Fatalf("trial %d: versioned apply of %s: %v", trial, st, err)
			}
			cur = next
			states = append(states, cur.Clone())
		}
		for ver := 0; ver < len(states); ver++ {
			got, err := vdb.Version(ver)
			if err != nil {
				t.Fatalf("trial %d: version %d: %v", trial, ver, err)
			}
			requireDatabasesEqual(t, fmt.Sprintf("trial %d version %d", trial, ver), states[ver], got)
		}
	}
}

// TestApplyFallbackOutsideCompilableSubset: a statement outside the
// kernel compiler's subset (symbolic variable in the condition) must
// route to the naive loop and surface that loop's evaluation error —
// never a compile-stage panic. (The compiler and the interpreter reject the
// same expression subset, so there is no case where only the fallback
// succeeds; the property being pinned is that rejection degrades to the
// reference path.)
func TestApplyFallbackOutsideCompilableSubset(t *testing.T) {
	db := randomApplyDB(rand.New(rand.NewSource(1)), 10)
	st := &Update{Rel: "r", Set: []SetClause{{Col: "v", E: expr.IntConst(1)}},
		Where: expr.Eq(expr.Variable("x0"), expr.IntConst(1))}
	if err := st.Apply(db); err == nil {
		t.Fatal("expected an error applying a symbolic-condition update")
	}
}

// TestAllIdentityUpdateStillEvaluatesWhere is the regression test for
// the degenerate UPDATE whose every SET column is an identity (SET a =
// a): there is nothing to write, but θ must still evaluate on every row
// and surface its errors exactly like the oracle — here a division by
// zero on a row with v = 0.
func TestAllIdentityUpdateStillEvaluatesWhere(t *testing.T) {
	build := func() *storage.Database {
		db := storage.NewDatabase()
		r := storage.NewRelation(schema.New("r", applyCols()...))
		r.Add(
			schema.NewTuple(types.Int(1), types.Int(5), types.String("a"), types.Float(1)),
			schema.NewTuple(types.Int(2), types.Int(0), types.String("b"), types.Float(2)),
		)
		db.AddRelation(r)
		return db
	}
	st := &Update{Rel: "r",
		Set:   []SetClause{{Col: "k", E: expr.Column("k")}},
		Where: expr.Eq(expr.Div(expr.IntConst(10), expr.Column("v")), expr.IntConst(2))}
	errFast := st.Apply(build())
	db := build()
	rel, _ := db.Relation("r")
	vec, err := st.setVector(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	errNaive := st.applyNaive(rel, vec)
	if errNaive == nil {
		t.Fatal("naive oracle did not error on division by zero in WHERE")
	}
	if errFast == nil {
		t.Fatalf("Apply dropped the WHERE evaluation error the naive loop surfaces (%v)", errNaive)
	}
}

// TestApplyProgramMemoReuse pins the per-statement plan cache: the
// same statement applied across layout-equal database clones (the
// redo-log replay pattern) stays correct, and a later application
// against a different schema layout recompiles rather than running the
// stale kernels.
func TestApplyProgramMemoReuse(t *testing.T) {
	st := &Update{Rel: "r",
		Set:   []SetClause{{Col: "v", E: expr.Add(expr.Column("v"), expr.IntConst(1))}},
		Where: expr.Ge(expr.Column("k"), expr.IntConst(0))}
	base := randomApplyDB(rand.New(rand.NewSource(3)), 20)
	for i := 0; i < 3; i++ { // replay across clones: memo hit path
		db := base.Clone()
		naive := base.Clone()
		if err := st.Apply(db); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if err := applyNaiveStatement(t, st, naive); err != nil {
			t.Fatalf("naive %d: %v", i, err)
		}
		requireDatabasesEqual(t, "memo reuse", naive, db)
	}
	// Same statement against a reordered layout: v at a new ordinal.
	db2 := storage.NewDatabase()
	r2 := storage.NewRelation(schema.New("r",
		schema.Col("v", types.KindInt), schema.Col("k", types.KindInt)))
	r2.Add(schema.NewTuple(types.Int(7), types.Int(1)))
	db2.AddRelation(r2)
	if err := st.Apply(db2); err != nil {
		t.Fatal(err)
	}
	got, _ := db2.Relation("r")
	want := schema.NewTuple(types.Int(8), types.Int(1))
	if !got.Tuples[0].Equal(want) {
		t.Fatalf("after layout change got %s, want %s", got.Tuples[0], want)
	}
}

// TestCompiledApplyErrorRollsBack pins the all-or-nothing guarantee of
// plain Apply, which rewrites rows in place: a WHERE that errors at row
// 1 500 of 2 100, after whole earlier batches qualified, leaves the
// relation exactly as it was.
func TestCompiledApplyErrorRollsBack(t *testing.T) {
	db := errorProneDB(2100, 1500)
	want := db.Clone()
	st := &Update{Rel: "r",
		Set: []SetClause{
			{Col: "k", E: expr.Add(expr.Column("k"), expr.IntConst(1))},
			{Col: "v", E: expr.Add(expr.Column("v"), expr.IntConst(1))},
		},
		Where: expr.Ge(expr.Div(expr.IntConst(100), expr.Column("v")), expr.IntConst(0))}
	if err := st.Apply(db); err == nil {
		t.Fatalf("expected a mid-relation evaluation error from %s", st)
	}
	requireDatabasesEqual(t, "state after failed statement", want, db)
}

// TestCompiledApplyConcurrentHistories applies one logged history onto
// separate clones from several goroutines at once, the way concurrent
// naive what-ifs execute it: under -race this pins that the
// statements' shared plan caches and kernels never share scratch, and
// every clone must reach the reference loops' final state.
func TestCompiledApplyConcurrentHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	base := randomApplyDB(rng, 1500)
	want := base.Clone()
	var h History
	for i := 0; len(h) < 24; i++ {
		st := randomIndexedStatement(rng, i)
		probe := want.Clone()
		if err := applyNaiveStatement(t, st, probe); err != nil {
			continue
		}
		want = probe
		h = append(h, st)
	}
	var wg sync.WaitGroup
	got := make([]*storage.Database, 4)
	errs := make([]error, len(got))
	for g := range got {
		got[g] = base.Clone()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = h.ApplyCtx(context.Background(), got[g])
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		requireDatabasesEqual(t, fmt.Sprintf("goroutine %d", g), want, got[g])
	}
}
