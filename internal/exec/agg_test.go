package exec_test

import (
	"fmt"
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
