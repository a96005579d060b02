package exec_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

func mustQuery(t testing.TB, src string) algebra.Query {
	t.Helper()
	q, err := sql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// evalTwoWay evaluates q with the interpreter and with a program
// compiled under opts and requires identical relations (schema, tuples,
// and order) or that both fail.
func evalTwoWay(t *testing.T, q algebra.Query, db *storage.Database, opts exec.VecOptions) *storage.Relation {
	t.Helper()
	want, errI := algebra.Eval(q, db)
	prog, err := exec.CompileVec(q, db, opts)
	var got *storage.Relation
	if err == nil {
		got, err = prog.Run(db)
	}
	if (errI == nil) != (err == nil) {
		t.Fatalf("error divergence on %s: interpreter=%v vectorized=%v", q, errI, err)
	}
	if errI == nil {
		requireSameRelation(t, fmt.Sprint(q), want, got)
	}
	return want
}

// aggBoundaryDB builds r(k,v,g) with n rows cycling through three
// groups, a NULL v every 7th row, and a float deviation in the
// int-declared v every 13th row (dropping the column to the boxed lane).
func aggBoundaryDB(n int) *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("r",
		schema.Col("k", types.KindInt),
		schema.Col("v", types.KindInt),
		schema.Col("g", types.KindString),
	))
	groups := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		v := types.Int(int64(i % 50))
		if i%7 == 3 {
			v = types.Null()
		} else if i%13 == 5 {
			v = types.Float(float64(i%50) + 0.5)
		}
		g := types.String(groups[i%3])
		if i%11 == 8 {
			g = types.Null() // NULL grouping keys form one group
		}
		r.Add(schema.NewTuple(types.Int(int64(i)), v, g))
	}
	db.AddRelation(r)
	return db
}

// TestAggregateExecutorBoundaries is the batch-edge battery: every
// aggregate shape at 0, 1, 1023, 1024, and 1025 input rows — empty
// input, a single batch minus/exactly/plus one row — must agree with
// the interpreter. GROUP BY k + 1 has one group per row, so its output
// crosses the 1024-row flush too.
func TestAggregateExecutorBoundaries(t *testing.T) {
	aggBoundaryBattery(t, []int{0, 1, 1023, 1024, 1025}, exec.VecOptions{})
}

// TestAggregateSmallBatchBoundaries runs the battery at 7-row batches.
// A γ's output batch holds min(groups, batch size) rows, so group
// counts of 6, 7 and 8 sit on either side of that cap, and every larger
// input flushes its groups many times.
func TestAggregateSmallBatchBoundaries(t *testing.T) {
	aggBoundaryBattery(t, []int{0, 1, 6, 7, 8, 1023, 1024, 1025}, exec.VecOptions{BatchSize: 7})
}

func aggBoundaryBattery(t *testing.T, sizes []int, opts exec.VecOptions) {
	queries := []string{
		"SELECT COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM r",
		"SELECT g, COUNT(*) AS n, SUM(v) AS s FROM r GROUP BY g",
		"SELECT g, AVG(v) AS a, MIN(v) AS lo, MAX(g) AS m FROM r WHERE k >= 2 GROUP BY g",
		"SELECT k + 1 AS kk, COUNT(v) AS c FROM r GROUP BY k + 1",
		"SELECT g FROM r GROUP BY g",
	}
	for _, n := range sizes {
		db := aggBoundaryDB(n)
		for _, src := range queries {
			t.Run(fmt.Sprintf("n=%d/%s", n, src), func(t *testing.T) {
				out := evalTwoWay(t, mustQuery(t, src), db, opts)
				if n == 0 {
					grouped := len(out.Schema.Columns) == 0 || out.Schema.Columns[0].Name == "g" || out.Schema.Columns[0].Name == "kk"
					if grouped && len(out.Tuples) != 0 {
						t.Fatalf("empty grouped input must yield zero rows, got %d", len(out.Tuples))
					}
					if !grouped && len(out.Tuples) != 1 {
						t.Fatalf("empty global aggregate must yield one row, got %d", len(out.Tuples))
					}
				}
			})
		}
	}
}

// TestAggregateSemantics pins the exact aggregate contract on a small
// fixed input: COUNT(*) vs COUNT(e) over NULLs, SUM/AVG numeric
// promotion, MIN/MAX over mixed numerics, empty-input global results,
// and NULL group keys collapsing into one group.
func TestAggregateSemantics(t *testing.T) {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("r",
		schema.Col("k", types.KindInt),
		schema.Col("v", types.KindInt),
		schema.Col("g", types.KindString),
	))
	r.Add(
		schema.NewTuple(types.Int(1), types.Int(10), types.String("a")),
		schema.NewTuple(types.Int(2), types.Null(), types.String("a")),
		schema.NewTuple(types.Int(3), types.Float(2.5), types.Null()),
		schema.NewTuple(types.Int(4), types.Int(7), types.Null()),
	)
	db.AddRelation(r)

	out := evalTwoWay(t, mustQuery(t,
		"SELECT COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM r"), db, exec.VecOptions{})
	if len(out.Tuples) != 1 {
		t.Fatalf("want 1 row, got %d", len(out.Tuples))
	}
	row := out.Tuples[0]
	wantRow := schema.NewTuple(
		types.Int(4),      // COUNT(*) counts rows
		types.Int(3),      // COUNT(v) skips the NULL
		types.Float(19.5), // 10 + 2.5 + 7 promotes to float
		types.Float(6.5),  // 19.5 / 3
		types.Float(2.5),  // MIN across int/float
		types.Int(10),     // MAX
	)
	if !row.Equal(wantRow) {
		t.Fatalf("global aggregate: got %s want %s", row, wantRow)
	}

	out = evalTwoWay(t, mustQuery(t, "SELECT g, COUNT(*) AS n FROM r GROUP BY g"), db, exec.VecOptions{})
	if len(out.Tuples) != 2 {
		t.Fatalf("NULL keys must form one group: got %d rows", len(out.Tuples))
	}
	if !out.Tuples[0].Equal(schema.NewTuple(types.String("a"), types.Int(2))) {
		t.Fatalf("group a: got %s", out.Tuples[0])
	}
	if !out.Tuples[1].Equal(schema.NewTuple(types.Null(), types.Int(2))) {
		t.Fatalf("NULL group: got %s", out.Tuples[1])
	}

	// Empty input: global aggregates yield COUNT 0 and NULLs...
	empty := storage.NewDatabase()
	empty.AddRelation(storage.NewRelation(r.Schema))
	out = evalTwoWay(t, mustQuery(t, "SELECT COUNT(*) AS n, SUM(v) AS s FROM r"), empty, exec.VecOptions{})
	if len(out.Tuples) != 1 || !out.Tuples[0].Equal(schema.NewTuple(types.Int(0), types.Null())) {
		t.Fatalf("empty global aggregate: got %v", out.Tuples)
	}
	// ...while grouped aggregates yield no rows.
	out = evalTwoWay(t, mustQuery(t, "SELECT g, COUNT(*) AS n FROM r GROUP BY g"), empty, exec.VecOptions{})
	if len(out.Tuples) != 0 {
		t.Fatalf("empty grouped aggregate: got %v", out.Tuples)
	}

	// Ill-typed aggregation errors in both executors (checked inside
	// evalTwoWay); the interpreter error is the contract.
	if _, err := algebra.Eval(mustQuery(t, "SELECT SUM(g) AS s FROM r"), db); err == nil {
		t.Fatal("SUM over string must error")
	}
	evalTwoWay(t, mustQuery(t, "SELECT SUM(g) AS s FROM r"), db, exec.VecOptions{})
}

// laneDB builds r(k, i, f, m, g) with n rows whose aggregate arguments
// sit on every lane shape a grouped γ folds: i a clean int lane with a
// NULL every 5th row, f a float lane of tenths with a NULL every 7th, m
// an int-declared column holding a float every 11th row (the boxed lane
// wherever a batch or the view holds one), and g a string key with a
// NULL every 9th row.
func laneDB(n int) *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("r",
		schema.Col("k", types.KindInt),
		schema.Col("i", types.KindInt),
		schema.Col("f", types.KindFloat),
		schema.Col("m", types.KindInt),
		schema.Col("g", types.KindString),
	))
	groups := []string{"a", "b", "c", "d"}
	for k := 0; k < n; k++ {
		i, f, m, g := types.Int(int64(k%97-40)), types.Float(float64(k%53)/10), types.Int(int64(k%31)), types.String(groups[k%4])
		if k%5 == 1 {
			i = types.Null()
		}
		if k%7 == 2 {
			f = types.Null()
		}
		if k%11 == 3 {
			m = types.Float(float64(k%31) + 0.5)
		}
		if k%9 == 4 {
			g = types.Null()
		}
		r.Add(schema.NewTuple(types.Int(int64(k)), i, f, m, g))
	}
	db.AddRelation(r)
	return db
}

// TestGroupedTypedLanesMatchInterpreter: grouped and global γs fold int
// and float lanes — masked or not — without boxing, and the boxed lane
// through Add; all of it must agree with the interpreter cell for cell
// (kind and bits) at 1023, 1024 and 1025 rows, at default and 7-row
// batches, over a private and a published relation, and the state
// RunGroupStateCtx returns must finalize to the same rows.
func TestGroupedTypedLanesMatchInterpreter(t *testing.T) {
	queries := []string{
		"SELECT g, COUNT(*) AS n, COUNT(i) AS ci, SUM(i) AS si, AVG(i) AS ai, MIN(i) AS li, MAX(i) AS hi, SUM(f) AS sf, AVG(f) AS af, MIN(f) AS lf, MAX(f) AS hf, SUM(m) AS sm, MIN(m) AS lm FROM r GROUP BY g",
		"SELECT i, SUM(f) AS s, COUNT(*) AS n, MAX(m) AS hm FROM r WHERE k >= 3 GROUP BY i",
		"SELECT g, f, SUM(i) AS s FROM r GROUP BY g, f",
		"SELECT SUM(f) AS s, AVG(i) AS a, MIN(m) AS lo, COUNT(f) AS c FROM r WHERE k >= 5",
	}
	for _, n := range []int{1023, 1024, 1025} {
		private := laneDB(n)
		frozen, _ := publish(t, laneDB(n))
		for _, src := range queries {
			q := mustQuery(t, src)
			want, err := algebra.Eval(q, private)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []exec.VecOptions{{}, {BatchSize: 7}} {
				prog, err := exec.CompileVec(q, private, opts)
				if err != nil {
					t.Fatal(err)
				}
				for name, db := range map[string]*storage.Database{"private": private, "frozen": frozen} {
					label := fmt.Sprintf("n=%d bs=%d %s %s", n, opts.BatchSize, name, src)
					got, err := prog.Run(db)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireIdenticalRows(t, label, want.Tuples, got.Tuples)
					st, err := prog.RunGroupStateCtx(context.Background(), db)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					rows, err := st.Rows()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireIdenticalRows(t, label+" (state)", want.Tuples, rows)
				}
			}
		}
	}
}

// requireIdenticalRows requires the same rows in the same order, each
// cell of the same kind and, for floats, the same bits.
func requireIdenticalRows(t *testing.T, label string, want, got []schema.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			w, g := want[i][c], got[i][c]
			if w.Kind() != g.Kind() || !w.Equal(g) || w.Kind() == types.KindFloat && math.Float64bits(w.AsFloat()) != math.Float64bits(g.AsFloat()) {
				t.Fatalf("%s: row %d = %s, want %s", label, i, got[i], want[i])
			}
		}
	}
}
