package exec_test

import (
	"context"
	"fmt"
	"math/rand"
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

// evalVec compiles q with the default options and runs it once.
func evalVec(q algebra.Query, db *storage.Database) (*storage.Relation, error) {
	prog, err := exec.CompileVec(q, db, exec.VecOptions{})
	if err != nil {
		return nil, err
	}
	return prog.RunCtx(context.Background(), db)
}

// requireSameRelation asserts exact equality — same schema, same
// tuples, same order. The vectorized executor (parallel scans included:
// the merge stage emits partitions in order) preserves the
// interpreter's output order, so no bag-level slack is needed.
func requireSameRelation(t *testing.T, label string, want, got *storage.Relation) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: schema %s, want %s", label, got.Schema, want.Schema)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples, want %d\ngot:\n%s\nwant:\n%s", label, len(got.Tuples), len(want.Tuples), got, want)
	}
	for i := range want.Tuples {
		if !got.Tuples[i].Equal(want.Tuples[i]) {
			t.Fatalf("%s: tuple %d = %s, want %s", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// TestVectorizedMatchesInterpreter runs the full plan-shape battery
// (fused chains, unions, joins, nested combinations) and
// requires the vectorized executor to produce the interpreter's exact
// output.
func TestVectorizedMatchesInterpreter(t *testing.T) {
	db := testDB()
	for name, q := range testQueries(t, db) {
		t.Run(name, func(t *testing.T) {
			want, err := algebra.Eval(q, db)
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			got, err := evalVec(q, db)
			if err != nil {
				t.Fatalf("vectorized: %v", err)
			}
			requireSameRelation(t, name, want, got)
		})
	}
}

// boundaryDB builds a relation with exactly rows tuples, deterministic
// contents, some NULLs.
func boundaryDB(rows int) *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation(schema.New("t",
		schema.Col("k", types.KindInt),
		schema.Col("v", types.KindInt),
		schema.Col("g", types.KindString),
	))
	groups := []string{"a", "b", "c", "d"}
	for i := 0; i < rows; i++ {
		v := types.Value(types.Int(int64(i % 997)))
		if i%41 == 0 {
			v = types.Null()
		}
		r.Add(schema.NewTuple(types.Int(int64(i)), v, types.String(groups[i%len(groups)])))
	}
	db.AddRelation(r)
	return db
}

// boundaryQueries are the shapes whose batch handling has edges: empty
// output, all-filtered batches, selection-narrowed projections, and
// multiset operators fed partial batches.
func boundaryQueries(t *testing.T, db *storage.Database) map[string]algebra.Query {
	t.Helper()
	tSch, err := algebra.OutputSchema(&algebra.Scan{Rel: "t"}, db)
	if err != nil {
		t.Fatal(err)
	}
	scan := func() algebra.Query { return &algebra.Scan{Rel: "t"} }
	updExprs := identityProjection(tSch)
	updExprs[1].E = expr.IfThenElse(mustCond(t, "v >= 100"),
		expr.Add(expr.Column("v"), expr.IntConst(7)), expr.Column("v"))
	return map[string]algebra.Query{
		"scan":         scan(),
		"all-filtered": &algebra.Select{Cond: mustCond(t, "v < 0"), In: scan()},
		"all-pass":     &algebra.Select{Cond: mustCond(t, "k >= 0"), In: scan()},
		"half":         &algebra.Select{Cond: mustCond(t, "v < 498"), In: scan()},
		"update-chain": &algebra.Project{Exprs: updExprs,
			In: &algebra.Select{Cond: mustCond(t, "g = 'a' OR g = 'b' OR v IS NULL"), In: scan()}},
		"self-join": &algebra.Project{
			Exprs: []algebra.NamedExpr{{Name: "k", E: expr.Column("k")}},
			In:    &algebra.Select{Cond: mustCond(t, "v = 3"), In: scan()},
		},
	}
}

// TestVectorizedBatchBoundaries sweeps relation sizes around the batch
// size — 0, 1, 1023, 1024, 1025 rows, plus a multi-batch size — across
// the boundary query shapes, comparing the executor with the
// interpreter exactly.
// The all-filtered shape drives whole batches to an empty selection
// (they must vanish, not emit empty batches or stale rows).
func TestVectorizedBatchBoundaries(t *testing.T) {
	for _, rows := range []int{0, 1, 1023, 1024, 1025, 3*1024 + 17} {
		db := boundaryDB(rows)
		for name, q := range boundaryQueries(t, db) {
			label := fmt.Sprintf("N%d/%s", rows, name)
			want, err := algebra.Eval(q, db)
			if err != nil {
				t.Fatalf("%s: interpreter: %v", label, err)
			}
			vec, err := evalVec(q, db)
			if err != nil {
				t.Fatalf("%s: vectorized: %v", label, err)
			}
			requireSameRelation(t, label+"/vectorized", want, vec)
		}
	}
}

// TestVectorizedErrorParity pins per-row lazy evaluation: conditional
// branches and short-circuited connective operands must evaluate over
// exactly the rows the interpreter evaluates them on, so an expression
// that errors on untaken rows errors in neither the interpreter nor the
// vectorized executor — and one that errors on a reachable row errors
// in both, with the same text: every failing case is one σ or one Π,
// which names its condition or column expression, and a comparison
// names its operands in the order the condition spells them, also when
// the kernel compares a column with a constant spelled first.
func TestVectorizedErrorParity(t *testing.T) {
	build := func(vals ...int64) *storage.Database {
		db := storage.NewDatabase()
		r := storage.NewRelation(schema.New("t",
			schema.Col("k", types.KindInt),
			schema.Col("v", types.KindInt),
		))
		for i, v := range vals {
			r.Add(schema.NewTuple(types.Int(int64(i)), types.Int(v)))
		}
		db.AddRelation(r)
		return db
	}
	// mixed holds a string cell in the int column v (a boxed lane).
	mixed := build(1, 2)
	r, _ := mixed.Relation("t")
	r.Add(schema.NewTuple(types.Int(2), types.String("x")))
	divByV := expr.Gt(expr.Div(expr.IntConst(100), expr.Column("v")), expr.IntConst(0))
	cases := []struct {
		name string
		db   *storage.Database
		q    algebra.Query
	}{
		// OR short-circuit: 100/v only evaluates where v <= 0 fails… v>0
		// is true for all rows, so the erroring right operand is dead.
		{"or-shortcircuit-dead", build(1, 2, 3),
			&algebra.Select{Cond: expr.OrOf(mustCond(t, "v > 0"), divByV), In: &algebra.Scan{Rel: "t"}}},
		// …and live once a row fails the left operand.
		{"or-shortcircuit-live", build(1, 0, 3),
			&algebra.Select{Cond: expr.OrOf(mustCond(t, "v > 0"), divByV), In: &algebra.Scan{Rel: "t"}}},
		// AND short-circuit mirror.
		{"and-shortcircuit-dead", build(1, 2, 3),
			&algebra.Select{Cond: expr.AndOf(mustCond(t, "v < 0"), divByV), In: &algebra.Scan{Rel: "t"}}},
		// IF guards a division: the then-branch only runs where v != 0.
		{"if-guarded-div", build(5, 0, 7),
			&algebra.Project{Exprs: []algebra.NamedExpr{{Name: "x",
				E: expr.IfThenElse(mustCond(t, "v > 0"), expr.Div(expr.IntConst(100), expr.Column("v")), expr.IntConst(0)),
			}}, In: &algebra.Scan{Rel: "t"}}},
		// Unguarded division over a zero row errors everywhere.
		{"unguarded-div", build(5, 0, 7),
			&algebra.Project{Exprs: []algebra.NamedExpr{{Name: "x",
				E: expr.Div(expr.IntConst(100), expr.Column("v")),
			}}, In: &algebra.Scan{Rel: "t"}}},
		// Type error reachable behind a filter: rows that never pass the
		// filter must not be evaluated by downstream projections.
		{"filtered-type-error", build(1, 2, 3),
			&algebra.Project{Exprs: []algebra.NamedExpr{{Name: "x",
				E: expr.Add(expr.Column("v"), expr.StringConst("boom")),
			}}, In: &algebra.Select{Cond: mustCond(t, "v < 0"), In: &algebra.Scan{Rel: "t"}}}},
		// A column-vs-constant comparison with the constant first, on a
		// string cell: the kernel compares flipped, the error must not.
		{"const-first-cmp", mixed,
			&algebra.Select{Cond: mustCond(t, "9007199254740992 <= v"), In: &algebra.Scan{Rel: "t"}}},
		{"col-first-cmp", mixed,
			&algebra.Select{Cond: mustCond(t, "v >= 9007199254740992"), In: &algebra.Scan{Rel: "t"}}},
		{"const-first-arith", mixed,
			&algebra.Project{Exprs: []algebra.NamedExpr{{Name: "x",
				E: expr.Sub(expr.IntConst(9), expr.Column("v")),
			}}, In: &algebra.Scan{Rel: "t"}}},
		{"typed-if-error", mixed,
			&algebra.Project{Exprs: []algebra.NamedExpr{
				{Name: "k", E: expr.Column("k")},
				{Name: "v", E: expr.IfThenElse(mustCond(t, "k >= 1"), expr.Add(expr.Column("v"), expr.IntConst(1)), expr.Column("v"))},
			}, In: &algebra.Scan{Rel: "t"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, errI := algebra.Eval(c.q, c.db)
			gotV, errV := evalVec(c.q, c.db)
			if fmt.Sprint(errI) != fmt.Sprint(errV) {
				t.Fatalf("error divergence: interpreter=%v vectorized=%v", errI, errV)
			}
			if errI != nil {
				return
			}
			requireSameRelation(t, "vectorized", want, gotV)
		})
	}
}

// parallelOptions forces partitioned parallel scans regardless of the
// host's CPU count, so the worker/merge machinery is exercised (and
// raced) even on a single-core CI runner.
var parallelOptions = exec.VecOptions{Workers: 4, MinParallelRows: 1}

// TestParallelScanMatchesSequential compiles the boundary battery with
// forced 4-way parallel scans and requires output identical to the
// interpreter — the ordered merge must reproduce the sequential order
// exactly, not just the bag.
func TestParallelScanMatchesSequential(t *testing.T) {
	for _, rows := range []int{1, 100, 1024, 3*1024 + 17} {
		db := boundaryDB(rows)
		for name, q := range boundaryQueries(t, db) {
			label := fmt.Sprintf("N%d/%s", rows, name)
			want, err := algebra.Eval(q, db)
			if err != nil {
				t.Fatalf("%s: interpreter: %v", label, err)
			}
			prog, err := exec.CompileVec(q, db, parallelOptions)
			if err != nil {
				t.Fatalf("%s: compile: %v", label, err)
			}
			got, err := prog.RunCtx(context.Background(), db)
			if err != nil {
				t.Fatalf("%s: parallel run: %v", label, err)
			}
			requireSameRelation(t, label, want, got)
		}
	}
}

// TestParallelScanRaceStress hammers one compiled program with
// concurrent RunCtx calls over a shared snapshot while each run itself
// fans out scan workers — the -race job's witness that per-run state
// (chain scratch, pools, partition buffers) is never shared across
// runs, and that shared snapshots stay read-only under the parallel
// scan.
func TestParallelScanRaceStress(t *testing.T) {
	db := boundaryDB(2048)
	var h history.History
	for _, src := range []string{
		`UPDATE t SET v = v + 1 WHERE g = 'a'`,
		`DELETE FROM t WHERE v < 10 AND g = 'd'`,
		`UPDATE t SET v = 0 WHERE v >= 900`,
	} {
		h = append(h, sql.MustParseStatement(src))
	}
	vdb := storage.NewVersioned(db)
	for _, st := range h {
		if err := vdb.Apply(st); err != nil {
			t.Fatal(err)
		}
	}
	snaps := storage.NewSnapshotCache(vdb)
	snap, err := snaps.SnapshotCtx(context.Background(), 1) // a shared, read-only mid-history state
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range boundaryQueries(t, snap) {
		prog, err := exec.CompileVec(q, snap, parallelOptions)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		want, err := prog.RunCtx(context.Background(), snap)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					got, err := prog.RunCtx(context.Background(), snap)
					if err != nil {
						errs[g] = err
						return
					}
					if !got.EqualAsBag(want) {
						errs[g] = fmt.Errorf("concurrent parallel run diverged")
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestVectorizedCancelBetweenBatches proves cancellation is observed at
// batch granularity: a pre-cancelled context aborts a vectorized run
// over a relation of a few batches.
func TestVectorizedCancelBetweenBatches(t *testing.T) {
	db := boundaryDB(2*1024 + 50) // 3 batches
	q := &algebra.Select{Cond: mustCond(t, "v >= 0"), In: &algebra.Scan{Rel: "t"}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	prog, err := exec.CompileVec(q, db, exec.VecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.RunCtx(ctx, db); err != context.Canceled {
		t.Fatalf("sequential vectorized run under a cancelled ctx returned %v, want context.Canceled", err)
	}

	par, err := exec.CompileVec(q, db, parallelOptions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := par.RunCtx(ctx, db); err != context.Canceled {
		t.Fatalf("parallel vectorized run under a cancelled ctx returned %v, want context.Canceled", err)
	}

	// Sanity: the same context still runs clean when not cancelled.
	if _, err := prog.RunCtx(context.Background(), db); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
}

// TestVectorizedRandomizedPlans cross-validates the executor with the
// interpreter over randomly generated plans (σ/Π/∪ trees with NULL-bearing data).
func TestVectorizedRandomizedPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := testDB()
	rSch, err := algebra.OutputSchema(&algebra.Scan{Rel: "r"}, db)
	if err != nil {
		t.Fatal(err)
	}
	var build func(depth int) algebra.Query
	build = func(depth int) algebra.Query {
		if depth <= 0 {
			return &algebra.Scan{Rel: "r"}
		}
		switch rng.Intn(6) {
		case 0:
			cond := mustCond(t, fmt.Sprintf("v %s %d", []string{">", "<=", "="}[rng.Intn(3)], rng.Intn(60)))
			return &algebra.Select{Cond: cond, In: build(depth - 1)}
		case 1:
			exprs := identityProjection(rSch)
			exprs[rng.Intn(2)].E = expr.IfThenElse(
				mustCond(t, fmt.Sprintf("k >= %d", rng.Intn(5))),
				expr.Add(expr.Column("v"), expr.IntConst(int64(rng.Intn(9)))),
				expr.Column("v"))
			return &algebra.Project{Exprs: exprs, In: build(depth - 1)}
		case 2:
			return &algebra.Union{L: build(depth - 1), R: build(depth - 1)}
		case 3:
			return &algebra.Union{L: build(depth - 1), R: build(depth - 1)}
		case 4:
			return &algebra.Select{Cond: mustCond(t, "v IS NULL OR g = 'a'"), In: build(depth - 1)}
		default:
			return &algebra.Select{Cond: mustCond(t, "g = 'a' OR g = 'b'"), In: build(depth - 1)}
		}
	}
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for i := 0; i < trials; i++ {
		q := build(2 + rng.Intn(3))
		want, errW := algebra.Eval(q, db)
		got, errG := evalVec(q, db)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: error divergence: interpreter=%v vectorized=%v\n%s", i, errW, errG, q)
		}
		if errW != nil {
			continue
		}
		requireSameRelation(t, fmt.Sprintf("trial %d: %s", i, q), want, got)
	}
}

// TestVectorizedRunDoesNotMutateSharedTuples extends the scan aliasing
// invariant to the vectorized paths (including parallel scans): base
// relation tuples flow into column batches and must never be written.
func TestVectorizedRunDoesNotMutateSharedTuples(t *testing.T) {
	db := testDB()
	before := map[string][]schema.Tuple{}
	for _, name := range db.RelationNames() {
		r, _ := db.Relation(name)
		for _, tp := range r.Tuples {
			before[name] = append(before[name], tp.Clone())
		}
	}
	for name, q := range testQueries(t, db) {
		if _, err := evalVec(q, db); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := exec.CompileVec(q, db, parallelOptions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := prog.RunCtx(context.Background(), db); err != nil {
			t.Fatalf("%s: parallel: %v", name, err)
		}
	}
	for _, name := range db.RelationNames() {
		r, _ := db.Relation(name)
		for i, tp := range r.Tuples {
			if !tp.Equal(before[name][i]) {
				t.Fatalf("relation %s tuple %d mutated: %s, was %s", name, i, tp, before[name][i])
			}
		}
	}
}

// TestVectorizedReenactmentChain runs the production reenactment shape
// through the vectorized executor against both oracles.
func TestVectorizedReenactmentChain(t *testing.T) {
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
	got, err := evalVec(q, db)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, "reenactment", want, got)
}

// TestFilterOverMultiBatchJoin is the regression test for a stale
// selection vector on reused join output batches: a filter consuming a
// join whose output spans several 1024-row
// batches writes b.sel onto the emitted batch, and the join's next
// flush must not carry that selection over. Before the fix, the second
// and later batches evaluated only the previous batch's selected rows.
func TestFilterOverMultiBatchJoin(t *testing.T) {
	const rows = 1600 // join output spans two 1024-row batches
	db := storage.NewDatabase()
	a := storage.NewRelation(schema.New("a", schema.Col("x", types.KindInt)))
	for i := 0; i < rows; i++ {
		a.Add(schema.NewTuple(types.Int(int64(i))))
	}
	db.AddRelation(a)
	bRel := storage.NewRelation(schema.New("b", schema.Col("y", types.KindInt), schema.Col("tag", types.KindString)))
	for i := 0; i < rows; i++ {
		bRel.Add(schema.NewTuple(types.Int(int64(i)), types.String([]string{"p", "q"}[i%2])))
	}
	db.AddRelation(bRel)
	join := &algebra.Join{L: &algebra.Scan{Rel: "a"}, R: &algebra.Scan{Rel: "b"},
		Cond: expr.Eq(expr.Column("x"), expr.Column("y"))}
	for name, q := range map[string]algebra.Query{
		"filter-over-hash-join": &algebra.Select{Cond: mustCond(t, "x > 600"), In: join},
	} {
		t.Run(name, func(t *testing.T) {
			want, err := algebra.Eval(q, db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := evalVec(q, db)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRelation(t, name, want, got)
		})
	}
}
